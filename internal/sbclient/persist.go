package sbclient

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/prefixdb"
)

// State-file framing: magic, version, then per-list records. Real Safe
// Browsing clients persist the local database between runs so a restart
// does not re-download hundreds of thousands of prefixes; this is the
// equivalent for this implementation.
const (
	stateMagic   = 0x53425354 // "SBST"
	stateVersion = 1
)

// ErrBadStateFile reports a corrupt or incompatible state file.
var ErrBadStateFile = errors.New("sbclient: bad state file")

// SaveState writes the client's list states and prefix databases. The
// full-hash cache is deliberately not persisted: cached digests expire
// in minutes, and persisting them would only widen the window in which
// stale verdicts survive.
func (c *Client) SaveState(w io.Writer) error {
	// Snapshot under the lock, serialize outside it: w may be a file or
	// a socket, and holding c.mu across its writes would stall every
	// concurrent lookup on the caller's disk (lockscope).
	type listSnapshot struct {
		name      string
		lastChunk uint32
		prefixes  []hashx.Prefix
	}
	c.mu.Lock()
	snaps := make([]listSnapshot, 0, len(c.listOrder))
	for _, name := range c.listOrder {
		ls := c.lists[name]
		snaps = append(snaps, listSnapshot{
			name:      name,
			lastChunk: ls.lastChunk,
			prefixes:  ls.store.Snapshot(),
		})
	}
	c.mu.Unlock()

	bw := bufio.NewWriter(w)
	var scratch [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}

	if err := binary.Write(bw, binary.BigEndian, uint32(stateMagic)); err != nil {
		return err
	}
	if err := bw.WriteByte(stateVersion); err != nil {
		return err
	}
	if err := writeUvarint(uint64(len(snaps))); err != nil {
		return err
	}
	for _, snap := range snaps {
		if err := writeUvarint(uint64(len(snap.name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(snap.name); err != nil {
			return err
		}
		if err := writeUvarint(uint64(snap.lastChunk)); err != nil {
			return err
		}
		if err := writeUvarint(uint64(len(snap.prefixes))); err != nil {
			return err
		}
		for _, p := range snap.prefixes {
			b := p.Bytes()
			if _, err := bw.Write(b[:]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// LoadState restores list states and prefix databases saved by
// SaveState. Lists in the file that the client does not sync are
// skipped; lists the client syncs but the file lacks keep their current
// (typically empty) state. The full-hash cache is cleared.
func (c *Client) LoadState(r io.Reader) error {
	br := bufio.NewReader(r)
	var magic uint32
	if err := binary.Read(br, binary.BigEndian, &magic); err != nil {
		return fmt.Errorf("%w: %v", ErrBadStateFile, err)
	}
	if magic != stateMagic {
		return fmt.Errorf("%w: bad magic %08x", ErrBadStateFile, magic)
	}
	version, err := br.ReadByte()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadStateFile, err)
	}
	if version != stateVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrBadStateFile, version)
	}
	nLists, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadStateFile, err)
	}
	if nLists > 1024 {
		return fmt.Errorf("%w: %d lists", ErrBadStateFile, nLists)
	}

	type loaded struct {
		lastChunk uint32
		prefixes  []hashx.Prefix
	}
	parsed := make(map[string]loaded, nLists)
	for i := uint64(0); i < nLists; i++ {
		nameLen, err := binary.ReadUvarint(br)
		if err != nil || nameLen > 1024 {
			return fmt.Errorf("%w: list name", ErrBadStateFile)
		}
		nameBuf := make([]byte, nameLen)
		if _, err := io.ReadFull(br, nameBuf); err != nil {
			return fmt.Errorf("%w: %v", ErrBadStateFile, err)
		}
		lastChunk, err := binary.ReadUvarint(br)
		if err != nil || lastChunk > 1<<32-1 {
			return fmt.Errorf("%w: chunk number", ErrBadStateFile)
		}
		count, err := binary.ReadUvarint(br)
		if err != nil || count > 1<<26 {
			return fmt.Errorf("%w: prefix count", ErrBadStateFile)
		}
		prefixes := make([]hashx.Prefix, count)
		var pb [hashx.PrefixSize]byte
		for j := range prefixes {
			if _, err := io.ReadFull(br, pb[:]); err != nil {
				return fmt.Errorf("%w: %v", ErrBadStateFile, err)
			}
			prefixes[j], _ = hashx.PrefixFromBytes(pb[:])
		}
		parsed[string(nameBuf)] = loaded{lastChunk: uint32(lastChunk), prefixes: prefixes}
	}

	// Build the replacement stores before taking the lock: c.newStore is
	// a caller callback and Apply rebuilds delta tables, neither of which
	// belongs inside the mutex (lockscope). Stores built for lists the
	// client no longer syncs are discarded below.
	stores := make(map[string]prefixdb.Updatable, len(parsed))
	for name, data := range parsed {
		fresh := c.newStore()
		fresh.Apply(data.prefixes, nil)
		stores[name] = fresh
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	for name, data := range parsed {
		ls, ok := c.lists[name]
		if !ok {
			continue // list no longer synced
		}
		ls.store = stores[name]
		ls.lastChunk = data.lastChunk
	}
	c.cache = make(map[hashx.Prefix]cacheEntry)
	return nil
}
