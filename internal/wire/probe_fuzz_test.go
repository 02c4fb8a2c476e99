package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sbprivacy/internal/hashx"
)

// refAppendProbeRecord is AppendProbeRecord as it was before it encoded
// in place: the body is built in a temporary and copied behind its
// length. Kept as the reference the in-place encoder must match byte
// for byte.
func refAppendProbeRecord(dst []byte, m *ProbeRecord) ([]byte, error) {
	if len(m.ClientID) > maxStringLen {
		return dst, fmt.Errorf("%w: client id = %d > %d bytes", ErrTooLarge, len(m.ClientID), maxStringLen)
	}
	if len(m.Prefixes) > maxPrefixesPerReq {
		return dst, fmt.Errorf("%w: prefix count = %d > %d", ErrTooLarge, len(m.Prefixes), maxPrefixesPerReq)
	}
	body := make([]byte, 0, 16+len(m.ClientID)+hashx.PrefixSize*len(m.Prefixes))
	body = binary.AppendVarint(body, m.UnixNano)
	body = binary.AppendUvarint(body, uint64(len(m.ClientID)))
	body = append(body, m.ClientID...)
	body = binary.AppendUvarint(body, uint64(len(m.Prefixes)))
	for _, p := range m.Prefixes {
		b := p.Bytes()
		body = append(body, b[:]...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...), nil
}

// refDecodeProbeRecord is DecodeProbeRecord as it was before
// ProbeFrame.Parse became the one validation of the record format.
// Kept as the reference the frame parser must agree with on every
// input: error, consumed count, fields.
func refDecodeProbeRecord(b []byte) (*ProbeRecord, int, error) {
	bodyLen, n := binary.Uvarint(b)
	if n == 0 {
		return nil, 0, ErrTornRecord
	}
	if n < 0 {
		return nil, 0, fmt.Errorf("wire: probe record length overflows uvarint")
	}
	if bodyLen > MaxProbeRecordBytes {
		return nil, 0, fmt.Errorf("%w: probe record body = %d > %d bytes", ErrTooLarge, bodyLen, MaxProbeRecordBytes)
	}
	if uint64(len(b)-n) < bodyLen {
		return nil, 0, ErrTornRecord
	}
	body := b[n : n+int(bodyLen)]
	consumed := n + int(bodyLen)

	m := &ProbeRecord{}
	nano, vn := binary.Varint(body)
	if vn <= 0 {
		return nil, 0, fmt.Errorf("wire: probe record: bad timestamp varint")
	}
	m.UnixNano = nano
	body = body[vn:]

	idLen, vn := binary.Uvarint(body)
	if vn <= 0 || idLen > maxStringLen || uint64(len(body)-vn) < idLen {
		return nil, 0, fmt.Errorf("wire: probe record: bad client id")
	}
	m.ClientID = string(body[vn : vn+int(idLen)])
	body = body[vn+int(idLen):]

	np, vn := binary.Uvarint(body)
	if vn <= 0 || np > maxPrefixesPerReq || uint64(len(body)-vn) != np*hashx.PrefixSize {
		return nil, 0, fmt.Errorf("wire: probe record: bad prefix block")
	}
	body = body[vn:]
	if np > 0 {
		m.Prefixes = make([]hashx.Prefix, np)
		for i := range m.Prefixes {
			p, err := hashx.PrefixFromBytes(body[i*hashx.PrefixSize : (i+1)*hashx.PrefixSize])
			if err != nil {
				return nil, 0, fmt.Errorf("wire: probe record: %w", err)
			}
			m.Prefixes[i] = p
		}
	}
	return m, consumed, nil
}

// errClass names the outcomes callers tell apart: a tear (truncate and
// carry on), an over-limit length, any other corruption, success.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrTornRecord):
		return "torn"
	case errors.Is(err, ErrTooLarge):
		return "too large"
	default:
		return "corrupt"
	}
}

// checkDecodeAgainstReference holds the frame parser and the record
// decoder built on it to the reference decoder on one input.
func checkDecodeAgainstReference(t *testing.T, b []byte) {
	t.Helper()
	want, wantN, wantErr := refDecodeProbeRecord(b)
	got, gotN, gotErr := DecodeProbeRecord(b)
	var fr ProbeFrame
	frN, frErr := fr.Parse(b)
	if errClass(gotErr) != errClass(wantErr) || errClass(frErr) != errClass(wantErr) {
		t.Fatalf("%x: errors %v (decode) / %v (frame), reference %v", b, gotErr, frErr, wantErr)
	}
	if gotN != wantN || frN != wantN {
		t.Fatalf("%x: consumed %d (decode) / %d (frame), reference %d", b, gotN, frN, wantN)
	}
	if wantErr != nil {
		if gotErr.Error() != wantErr.Error() || frErr.Error() != wantErr.Error() || got != nil {
			t.Fatalf("%x: errors %q (decode) / %q (frame), reference %q; record %+v", b, gotErr, frErr, wantErr, got)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%x: decoded %+v, reference %+v", b, got, want)
	}
	if fr.UnixNano != want.UnixNano || string(fr.ClientID) != want.ClientID ||
		fr.NumPrefixes() != len(want.Prefixes) ||
		!reflect.DeepEqual(fr.AppendPrefixes(nil), want.Prefixes) {
		t.Fatalf("%x: frame (%d, %q, %v), reference %+v", b, fr.UnixNano, fr.ClientID, fr.AppendPrefixes(nil), want)
	}
}

// FuzzProbeFrame holds the allocation-free frame parser and the
// in-place encoder to the implementations they replaced: for arbitrary
// bytes, the same error class and message, the same consumed count and
// the same fields; for arbitrary records, the same bytes appended and a
// frame that parses back to the record. The seeds are probe_test.go's
// cases — a frame torn at every byte, ids and prefix counts over the
// limit, trailing bytes — and plain "go test" replays them.
func FuzzProbeFrame(f *testing.F) {
	full, err := refAppendProbeRecord(nil, &ProbeRecord{UnixNano: 42, ClientID: "victim",
		Prefixes: []hashx.Prefix{1, 2, 3}})
	if err != nil {
		f.Fatal(err)
	}
	for cut := 0; cut <= len(full); cut++ {
		f.Add(full[:cut], int64(cut), "victim", full[:cut])
	}
	f.Add(append(full[:len(full):len(full)], 0xde, 0xad), int64(-7), "", []byte(nil)) // trailing bytes
	f.Add(append(full[:len(full):len(full)], full...), int64(0), "c", []byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f}, int64(1457000000123456789), "cookie-1", []byte{0xe7, 0x0e, 0xe6, 0xd1, 0, 0, 0, 1})
	f.Add(bytes.Repeat([]byte{0xff}, 11), int64(1)<<62, strings.Repeat("x", maxStringLen+1), []byte(nil))
	f.Add([]byte{2, 0x80, 0x80}, -int64(1)<<62, strings.Repeat("x", maxStringLen), make([]byte, 4*(maxPrefixesPerReq+1)))
	// A body whose id length or prefix count lies about what follows.
	f.Add([]byte{3, 2, 200, 1}, int64(0), "", make([]byte, 4*maxPrefixesPerReq))
	f.Add([]byte{4, 2, 1, 'x', 9}, int64(0), "", []byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, b []byte, nano int64, id string, rawPrefixes []byte) {
		checkDecodeAgainstReference(t, b)

		rec := ProbeRecord{UnixNano: nano, ClientID: id}
		for ; len(rawPrefixes) >= hashx.PrefixSize; rawPrefixes = rawPrefixes[hashx.PrefixSize:] {
			rec.Prefixes = append(rec.Prefixes, hashx.Prefix(binary.BigEndian.Uint32(rawPrefixes)))
		}
		// Onto a non-empty dst with no spare capacity: the encoder may
		// neither touch what is there nor depend on room being there.
		head := []byte("head")
		want, wantErr := refAppendProbeRecord(head[:len(head):len(head)], &rec)
		got, gotErr := AppendProbeRecord(head[:len(head):len(head)], &rec)
		if errClass(gotErr) != errClass(wantErr) || !bytes.Equal(got, want) {
			t.Fatalf("%+v: appended %x (%v), reference %x (%v)", rec, got, gotErr, want, wantErr)
		}
		if wantErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("%+v: error %q, reference %q", rec, gotErr, wantErr)
			}
			return
		}
		frame := got[len(head):]
		back, n, err := DecodeProbeRecord(frame)
		if err != nil || n != len(frame) || !reflect.DeepEqual(*back, rec) {
			t.Fatalf("%+v: round trip = %+v, %d of %d bytes, %v", rec, back, n, len(frame), err)
		}
		checkDecodeAgainstReference(t, frame)
	})
}
