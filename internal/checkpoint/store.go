package checkpoint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Store manages a directory of numbered checkpoint files with atomic writes
// and bounded retention. File names are ck-<seq>.jck with a monotonically
// increasing sequence; Save writes to a temporary file, syncs, and renames,
// so a crash at any instant leaves either the previous checkpoint set or
// the previous set plus one complete new file — never a torn visible file.
// Leftover temporaries from a crashed writer are removed on Open.
type Store struct {
	dir  string
	keep int
	seq  uint64
	// kept lists the retained checkpoints' sequence numbers, ascending:
	// seeded by OpenStore's scan and maintained by Save, so retention deletes
	// the oldest by number instead of listing the directory after every save.
	kept []uint64
	enc  encoder       // Save's encoder, its scratch buffer reused
	bw   *bufio.Writer // Save's 64 KB write buffer, reset onto each tmp file
}

const (
	prefix = "ck-"
	suffix = ".jck"
)

// OpenStore opens (creating if needed) a checkpoint directory. keep bounds
// how many checkpoints are retained; values below 1 mean 2 — the newest
// plus one fallback in case the newest is later found corrupt.
func OpenStore(dir string, keep int) (*Store, error) {
	if keep < 1 {
		keep = 2
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: open store: %w", err)
	}
	s := &Store{dir: dir, keep: keep, bw: bufio.NewWriterSize(nil, 64<<10)}
	seqs, err := s.scan()
	if err != nil {
		return nil, err
	}
	if len(seqs) > 0 {
		s.seq = seqs[len(seqs)-1]
	}
	s.kept = seqs
	return s, nil
}

// scan lists the checkpoint sequence numbers in ascending order and removes
// stale temporaries from crashed writers.
func (s *Store) scan() ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: scan: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(s.dir, name))
			continue
		}
		rest, ok := strings.CutPrefix(name, prefix)
		if !ok {
			continue
		}
		numStr, ok := strings.CutSuffix(rest, suffix)
		if !ok {
			continue
		}
		n, err := strconv.ParseUint(numStr, 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, n)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

func (s *Store) path(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%08d%s", prefix, seq, suffix))
}

// Save atomically writes the checkpoint as the next sequence number and
// prunes files beyond the retention bound. It returns the written path. The
// record is streamed into the temporary file through the store's reused
// encoder and write buffer, so Save never holds the whole encoding.
func (s *Store) Save(c *Checkpoint) (string, error) {
	s.seq++
	final := s.path(s.seq)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", fmt.Errorf("checkpoint: save: %w", err)
	}
	s.bw.Reset(f)
	err = s.enc.encode(s.bw, c)
	if err == nil {
		err = s.bw.Flush()
	}
	s.bw.Reset(nil)
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return "", fmt.Errorf("checkpoint: save: %w", err)
	}
	// Sync before rename: the rename must never become visible ahead of
	// the data it names (the torn-write discipline the kill-point harness
	// relies on).
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", fmt.Errorf("checkpoint: save: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("checkpoint: save: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("checkpoint: save: %w", err)
	}
	s.kept = append(s.kept, s.seq)
	s.prune()
	return final, nil
}

// prune removes checkpoints beyond the retention bound, oldest first.
// Errors are ignored — retention is best-effort hygiene, not correctness.
func (s *Store) prune() {
	for len(s.kept) > s.keep {
		os.Remove(s.path(s.kept[0]))
		s.kept = s.kept[:copy(s.kept, s.kept[1:])]
	}
}

// Latest decodes the newest valid checkpoint, skipping corrupt files (a
// torn or damaged newest file falls back to its predecessor). It returns
// (nil, "", nil) when no valid checkpoint exists — a fresh start.
func (s *Store) Latest() (*Checkpoint, string, error) {
	seqs, err := s.scan()
	if err != nil {
		return nil, "", err
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		p := s.path(seqs[i])
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		c, err := Decode(data)
		if err != nil {
			// Corrupt or incompatible: fall back to the previous one.
			continue
		}
		return c, p, nil
	}
	return nil, "", nil
}

// Count returns how many checkpoint files are currently on disk.
func (s *Store) Count() int {
	seqs, _ := s.scan()
	return len(seqs)
}
