// Package store is the repository's persistent, content-addressed result
// store: the on-disk L2 under the in-memory solve caches. A Store maps a
// canonical content key — the SHA-256 of a canonical JSON encoding of
// everything that determines a result (see Key) — to an opaque serialized
// payload, one file per entry.
//
// The design goal is amortization across *processes*: internal/solvecache
// and the per-Model solve memos amortize repeated solves within one
// process, and the single-flight layer collapses concurrent repeats, but
// every process still starts cold. Layering the store under those tiers
// (the variant batch runner and the swapd quote daemon read through it)
// makes a solved cell a durable artifact — the sweep atlas re-solves only
// cells whose content key is absent or changed, and a restarted daemon
// serves warm quotes from its first request.
//
// Because the key is a hash of the entry's full input, entries can never
// go stale: a changed input is a *different key*, so there is no
// invalidation machinery — only content-key change. The file format is
// defensive instead: a versioned header carrying the key, the payload
// length and a payload checksum, so a truncated, bit-flipped, wrongly
// versioned or wrongly addressed file behaves as a miss (and is removed so
// the next Put rewrites it cleanly) rather than ever serving partial or
// corrupt bytes. Writes are atomic (temp file + rename into place), so
// concurrent writers and crashed processes leave either the old complete
// entry, the new complete entry, or nothing.
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
)

// Errors returned by the package.
var (
	// ErrBadKey reports a key that is not a canonical content hash.
	ErrBadKey = errors.New("store: invalid content key")
	// ErrBadPayload reports a Put of an empty payload.
	ErrBadPayload = errors.New("store: empty payload")
)

// formatVersion is the on-disk entry format version. Entries written under
// a different version read as misses, so a format change never serves old
// bytes — the cell is simply re-solved and rewritten.
const formatVersion = 1

// magic is the header tag of every entry file.
const magic = "swapstore"

// Key returns the canonical content key of v: the SHA-256 hex digest of
// v's canonical JSON encoding (encoding/json marshals struct fields in
// declaration order and map keys sorted, so equal values hash equally).
// Everything that determines the stored result must be reachable from v;
// two inputs collide only if their canonical encodings are identical.
func Key(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("store: encoding key material: %w", err)
	}
	return KeyBytes(data), nil
}

// KeyBytes returns the content key of an already-canonical byte string.
func KeyBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// validKey reports whether key is a lowercase hex digest of plausible
// length. Keys address files, so anything else (path separators, "..") is
// rejected outright.
func validKey(key string) bool {
	if len(key) < 16 || len(key) > 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Store is one on-disk content-addressed result store rooted at a
// directory. Entries are sharded into 256 subdirectories by key prefix so
// atlas-scale universes do not pile tens of thousands of files into one
// directory. A Store is safe for concurrent use by any number of
// goroutines and processes sharing the directory.
type Store struct {
	dir string

	hits    atomic.Uint64
	misses  atomic.Uint64
	corrupt atomic.Uint64
	puts    atomic.Uint64
	putErrs atomic.Uint64
}

// Open opens (creating if needed) the store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// path maps a key to its entry file.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key)
}

// Get returns the payload stored under key. Every failure mode — absent
// entry, unreadable file, wrong magic or version, header/key mismatch,
// truncated or oversized payload, checksum mismatch — is a miss; corrupt
// files are additionally counted and removed so the next Put rewrites them
// cleanly. A returned payload is always complete and checksum-verified.
func (s *Store) Get(key string) ([]byte, bool) {
	if !validKey(key) {
		s.misses.Add(1)
		return nil, false
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	payload, err := decodeEntry(key, data)
	if err != nil {
		// Corruption-as-miss: count it, drop the bad file (best effort),
		// and let the caller recompute and rewrite.
		s.corrupt.Add(1)
		s.misses.Add(1)
		os.Remove(s.path(key))
		return nil, false
	}
	s.hits.Add(1)
	return payload, true
}

// Put stores payload under key, atomically: the entry is assembled in a
// temporary file in the same directory and renamed into place, so a
// concurrent reader sees either the previous complete entry or this one,
// never a partial write. Concurrent writers of the same key are safe —
// content addressing makes their payloads identical, and rename is atomic
// either way.
func (s *Store) Put(key string, payload []byte) error {
	if !validKey(key) {
		s.putErrs.Add(1)
		return fmt.Errorf("%w: %q", ErrBadKey, key)
	}
	if len(payload) == 0 {
		s.putErrs.Add(1)
		return ErrBadPayload
	}
	dir := filepath.Dir(s.path(key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.putErrs.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-"+key[:8]+"-*")
	if err != nil {
		s.putErrs.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	w := bufio.NewWriter(tmp)
	writeErr := encodeEntry(w, key, payload)
	if writeErr == nil {
		writeErr = w.Flush()
	}
	if closeErr := tmp.Close(); writeErr == nil {
		writeErr = closeErr
	}
	if writeErr == nil {
		writeErr = os.Rename(tmp.Name(), s.path(key))
	}
	if writeErr != nil {
		s.putErrs.Add(1)
		return fmt.Errorf("store: writing %s: %w", key[:8], writeErr)
	}
	s.puts.Add(1)
	return nil
}

// encodeEntry writes one entry: a single header line
//
//	swapstore <version> <key> <payload length> <payload sha256>\n
//
// followed by the raw payload bytes.
func encodeEntry(w io.Writer, key string, payload []byte) error {
	sum := sha256.Sum256(payload)
	if _, err := fmt.Fprintf(w, "%s %d %s %d %s\n",
		magic, formatVersion, key, len(payload), hex.EncodeToString(sum[:])); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// decodeEntry validates one entry file read for key and returns its
// payload. Every violation of the format is an error (the caller treats
// it as corruption).
func decodeEntry(key string, data []byte) ([]byte, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("store: missing header")
	}
	fields := bytes.Fields(data[:nl])
	if len(fields) != 5 {
		return nil, fmt.Errorf("store: malformed header")
	}
	if string(fields[0]) != magic {
		return nil, fmt.Errorf("store: bad magic %q", fields[0])
	}
	if v, err := strconv.Atoi(string(fields[1])); err != nil || v != formatVersion {
		return nil, fmt.Errorf("store: version %q != %d", fields[1], formatVersion)
	}
	if string(fields[2]) != key {
		return nil, fmt.Errorf("store: entry addressed to key %q", fields[2])
	}
	n, err := strconv.Atoi(string(fields[3]))
	if err != nil || n <= 0 {
		return nil, fmt.Errorf("store: bad payload length %q", fields[3])
	}
	payload := data[nl+1:]
	if len(payload) != n {
		return nil, fmt.Errorf("store: payload %d bytes, header says %d", len(payload), n)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != string(fields[4]) {
		return nil, fmt.Errorf("store: payload checksum mismatch")
	}
	return payload, nil
}

// Len walks the store and counts complete-looking entries (files whose
// name is their shard's key). It is a diagnostic, not a hot path.
func (s *Store) Len() int {
	n := 0
	filepath.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if name := d.Name(); validKey(name) && filepath.Base(filepath.Dir(path)) == name[:2] {
			n++
		}
		return nil
	})
	return n
}

// Stats reports the store's directory and cumulative behaviour.
type Stats struct {
	Dir string `json:"dir"`
	// Hits and Misses count Get outcomes; Corrupt counts the subset of
	// misses caused by undecodable entry files (each also removed).
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Corrupt uint64 `json:"corrupt"`
	// Puts counts successful writes; PutErrors failed ones.
	Puts      uint64 `json:"puts"`
	PutErrors uint64 `json:"putErrors"`
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	return Stats{
		Dir:       s.dir,
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Corrupt:   s.corrupt.Load(),
		Puts:      s.puts.Load(),
		PutErrors: s.putErrs.Load(),
	}
}
