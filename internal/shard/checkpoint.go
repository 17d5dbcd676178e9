package shard

import (
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Checkpoint persists an engine's warm state, with the round it was taken
// at, in a state file: popserver's -state-file in both single-process and
// worker modes. Restore reads the file back at start-up, SaveAsync writes
// after a round with at most one write in flight, and Save is the
// synchronous shutdown barrier. Every write goes through writeFileAtomic.
// A nil Checkpoint (no state file) does nothing.
type Checkpoint struct {
	path   string
	b      *EngineBundle
	log    *slog.Logger
	saving *atomic.Bool
}

// NewCheckpoint returns the checkpoint of b's state in path, or nil when
// path is empty. saving is set while a SaveAsync write is in flight; it
// belongs to the caller, which may watch it (say, to let a last write
// finish).
func NewCheckpoint(path string, b *EngineBundle, log *slog.Logger, saving *atomic.Bool) *Checkpoint {
	if path == "" {
		return nil
	}
	return &Checkpoint{path: path, b: b, log: log, saving: saving}
}

// checkpointFile is the on-disk shape of a state file.
type checkpointFile struct {
	Round int `json:"round"`
	// LastRound is where worker state files kept the round before the
	// server and the worker shared this format; it is read, never written.
	LastRound int             `json:"last_round,omitempty"`
	Engine    json.RawMessage `json:"engine"`
}

// Restore installs the state file's engine snapshot and returns the round
// it was taken at. A missing file reports false quietly; an unreadable,
// corrupt or rejected one is logged and reports false, and the engine
// starts fresh.
func (c *Checkpoint) Restore() (round int, ok bool) {
	if c == nil {
		return 0, false
	}
	raw, err := os.ReadFile(c.path)
	if err != nil {
		if !os.IsNotExist(err) {
			c.log.Warn("state file unreadable; starting fresh", "file", c.path, "err", err)
		}
		return 0, false
	}
	var st checkpointFile
	if err := json.Unmarshal(raw, &st); err != nil {
		c.log.Warn("state file corrupt; starting fresh", "file", c.path, "err", err)
		return 0, false
	}
	if err := c.b.Restore(st.Engine); err != nil {
		c.log.Warn("state restore rejected; starting fresh", "file", c.path, "err", err)
		return 0, false
	}
	round = max(st.Round, st.LastRound)
	c.log.Info("state restored", "file", c.path, "round", round, "jobs", c.b.Engine.NumJobs())
	return round, true
}

// snapshot marshals the engine state at round (the caller holds the lock
// that serializes the engine's rounds).
func (c *Checkpoint) snapshot(round int) ([]byte, error) {
	eng, err := c.b.Snapshot()
	if err != nil {
		return nil, err
	}
	return json.Marshal(checkpointFile{Round: round, Engine: eng})
}

// SaveAsync checkpoints after a round without blocking the next one: the
// snapshot is taken now (cheap struct copies; the caller holds the engine's
// lock) and the file is written in the background. At most one write is in
// flight; a round that finds one skips its checkpoint, since a newer
// round's state supersedes it and never queues.
func (c *Checkpoint) SaveAsync(round int) {
	if c == nil || !c.saving.CompareAndSwap(false, true) {
		return
	}
	st, err := c.snapshot(round)
	if err != nil {
		c.saving.Store(false)
		c.log.Warn("state snapshot failed", "err", err)
		return
	}
	go func() {
		defer c.saving.Store(false)
		if err := writeFileAtomic(c.path, st); err != nil {
			c.log.Warn("state save failed", "err", err)
		}
	}()
}

// Save synchronously persists the engine state at round(), snapshotting
// under mu (the lock that serializes the engine's rounds) and writing
// outside it.
func (c *Checkpoint) Save(mu sync.Locker, round func() int) error {
	if c == nil {
		return nil
	}
	mu.Lock()
	st, err := c.snapshot(round())
	mu.Unlock()
	if err != nil {
		return err
	}
	return writeFileAtomic(c.path, st)
}

// writeFileAtomic replaces path with data through a temporary file in the
// same directory and a rename, so a crash never leaves a torn state file.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".state-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Rename(name, path)
}
