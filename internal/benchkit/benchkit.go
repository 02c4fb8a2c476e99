// Package benchkit holds the strict JSON round trip every BENCH_*.json
// schema in the repo shares: a report is validated before it is written
// and again after it is read, and the reader rejects unknown fields, so
// a drift between writer and reader fails loudly instead of comparing
// incomparable runs. The schema packages (loadrig, prefixtable, stream)
// own their types, schema ids and Validate rules; this package owns only
// the file handling.
package benchkit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// WriteFile validates r and writes it as indented JSON to path — a
// BENCH file that fails its own schema is worse than no file. pkg
// prefixes the error, naming the schema package.
func WriteFile[T any](pkg, path string, r *T, validate func(*T) error) error {
	if err := validate(r); err != nil {
		return fmt.Errorf("%s: refusing to write invalid report: %w", pkg, err)
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile reads a report from path, rejecting unknown fields, and
// validates it. pkg prefixes the errors, naming the schema package.
func ReadFile[T any](pkg, path string, validate func(*T) error) (*T, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r T
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", pkg, path, err)
	}
	if err := validate(&r); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", pkg, path, err)
	}
	return &r, nil
}
