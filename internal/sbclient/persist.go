package sbclient

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"sbprivacy/internal/hashx"
	"sbprivacy/internal/prefixdb"
	"sbprivacy/internal/wire"
)

// The state file is a wire.DownloadResponse holding one add chunk per
// synced list: the chunk's number is the list's last applied chunk and
// its prefixes are the whole local database. Real Safe Browsing clients
// persist the local database between runs so a restart does not
// re-download hundreds of thousands of prefixes; this is the equivalent
// for this implementation. The wire decoder's limits bound the file, so
// a list of more than 2^21 prefixes (over three times Table 2's 630 428)
// saves a file that does not load back.

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
	var state wire.DownloadResponse
	c.mu.Lock()
	for _, name := range c.listOrder {
		ls := c.lists[name]
		state.Chunks = append(state.Chunks, wire.Chunk{
			List:     name,
			Num:      ls.lastChunk,
			Type:     wire.ChunkAdd,
			Prefixes: ls.store.Snapshot(),
		})
	}
	c.mu.Unlock()

	bw := bufio.NewWriter(w)
	if err := state.Encode(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadState restores list states and prefix databases saved by
// SaveState. Lists in the file that the client does not sync are
// skipped; lists the client syncs but the file lacks keep their current
// (typically empty) state. The full-hash cache is cleared.
func (c *Client) LoadState(r io.Reader) error {
	state, err := wire.DecodeDownloadResponse(r)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadStateFile, err)
	}

	// Build the replacement stores before taking the lock: c.newStore is
	// a caller callback and Apply rebuilds delta tables, neither of which
	// belongs inside the mutex (lockscope). Stores built for lists the
	// client no longer syncs are discarded below.
	stores := make(map[string]prefixdb.Updatable, len(state.Chunks))
	for _, ch := range state.Chunks {
		if ch.Type != wire.ChunkAdd {
			return fmt.Errorf("%w: sub chunk for %q", ErrBadStateFile, ch.List)
		}
		if _, dup := stores[ch.List]; dup {
			return fmt.Errorf("%w: list %q appears twice", ErrBadStateFile, ch.List)
		}
		fresh := c.newStore()
		fresh.Apply(ch.Prefixes, nil)
		stores[ch.List] = fresh
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ch := range state.Chunks {
		ls, ok := c.lists[ch.List]
		if !ok {
			continue // list no longer synced
		}
		ls.store = stores[ch.List]
		ls.lastChunk = ch.Num
	}
	c.cache = make(map[hashx.Prefix]cacheEntry)
	return nil
}
