package statestore

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
)

// ErrNoSpace is the injected shape of a full disk: a write (or the tail
// of a short write) that could not land. Own sentinel rather than
// syscall.ENOSPC so fault campaigns behave identically on every
// platform the tests run on.
var ErrNoSpace = errors.New("statestore: injected fault: no space left on device")

// ErrIOFault is the injected shape of a media error surfaced at fsync —
// the fsyncgate failure mode: data was accepted by the page cache, then
// the durability barrier itself reports the loss.
var ErrIOFault = errors.New("statestore: injected fault: input/output error")

// FaultConfig selects which filesystem faults to inject and how hard.
// Probabilities are per-operation in [0,1]; zero disables the fault.
// Every decision draws from a stream seeded by Seed in operation order,
// so a workload that drives the store deterministically sees the same
// faults on every run.
type FaultConfig struct {
	// Seed makes every injection decision reproducible. Zero is a valid
	// seed (not "random").
	Seed int64

	// WriteErrProb fails a file write outright with ErrNoSpace: no bytes
	// land.
	WriteErrProb float64
	// ShortWriteProb persists only a proper prefix of a write, then
	// returns ErrNoSpace — the torn frame a disk that filled mid-write
	// leaves behind. The prefix length is drawn from the seeded stream.
	ShortWriteProb float64
	// SyncErrProb fails a file Sync with ErrIOFault after the data was
	// accepted — the ack that never comes.
	SyncErrProb float64
	// DirSyncErrProb fails SyncDir with ErrIOFault — a snapshot rename
	// whose durability barrier dies.
	DirSyncErrProb float64
}

// enabled reports whether any fault is configured at all.
func (c FaultConfig) enabled() bool {
	return c.WriteErrProb > 0 || c.ShortWriteProb > 0 || c.SyncErrProb > 0 || c.DirSyncErrProb > 0
}

// FaultStats counts the faults actually injected, for oracles asserting
// that a campaign exercised what it claims to.
type FaultStats struct {
	Ops         uint64 // mutating operations observed while armed
	WriteFaults uint64 // writes failed outright
	ShortWrites uint64 // writes torn to a prefix
	SyncFaults  uint64 // file or directory syncs failed
}

// FaultFS wraps another FS and injects runtime filesystem faults —
// ENOSPC on write, short writes, EIO at fsync — without killing the
// process, unlike CrashFS which models death. The store under a FaultFS
// must degrade per its poisoning contract: a failed write or sync
// poisons the store, already-acked records stay durable, and reopening
// the directory (with a healthy FS) recovers everything acked.
//
// The injector starts armed; Arm(false) lets a campaign boot a clean
// store and spring the faults at a chosen point in the workload. While
// disarmed every operation passes straight through and draws nothing
// from the decision stream, so the armed-phase fault sequence does not
// depend on how long the clean phase ran.
type FaultFS struct {
	inner FS
	cfg   FaultConfig
	armed atomic.Bool

	mu    sync.Mutex
	rng   *rand.Rand
	stats FaultStats
}

// NewFaultFS wraps inner with the configured fault injection, armed.
func NewFaultFS(inner FS, cfg FaultConfig) *FaultFS {
	if inner == nil {
		inner = OSFS{}
	}
	f := &FaultFS{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	f.armed.Store(true)
	return f
}

// Arm enables (or disables) fault injection at runtime. Disarmed, the
// filesystem is honest.
func (f *FaultFS) Arm(on bool) { f.armed.Store(on) }

// Stats snapshots the injected-fault counters.
func (f *FaultFS) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// draw makes one seeded probability decision. Only armed operations
// consume from the stream.
func (f *FaultFS) draw(p float64) bool {
	if p <= 0 {
		return false
	}
	return f.rng.Float64() < p
}

// MkdirAll implements FS.
func (f *FaultFS) MkdirAll(dir string) error { return f.inner.MkdirAll(dir) }

// ReadDir implements FS. Reads are never faulted: recovery must be able
// to see what actually landed.
func (f *FaultFS) ReadDir(dir string) ([]string, error) { return f.inner.ReadDir(dir) }

// ReadFile implements FS.
func (f *FaultFS) ReadFile(name string) ([]byte, error) { return f.inner.ReadFile(name) }

// Create implements FS.
func (f *FaultFS) Create(name string) (File, error) {
	inner, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

// OpenAppend implements FS.
func (f *FaultFS) OpenAppend(name string) (File, error) {
	inner, err := f.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

// Rename implements FS.
func (f *FaultFS) Rename(oldname, newname string) error { return f.inner.Rename(oldname, newname) }

// Remove implements FS.
func (f *FaultFS) Remove(name string) error { return f.inner.Remove(name) }

// Truncate implements FS.
func (f *FaultFS) Truncate(name string, size int64) error { return f.inner.Truncate(name, size) }

// SyncDir implements FS: the rename durability barrier can report EIO.
func (f *FaultFS) SyncDir(dir string) error {
	if f.armed.Load() {
		f.mu.Lock()
		f.stats.Ops++
		fault := f.draw(f.cfg.DirSyncErrProb)
		if fault {
			f.stats.SyncFaults++
		}
		f.mu.Unlock()
		if fault {
			return ErrIOFault
		}
	}
	return f.inner.SyncDir(dir)
}

// faultFile injects write/sync faults on one open file. Unlike
// CrashFS's page-cache model, writes pass straight through: the faults
// here are the disk saying no while the process lives on.
type faultFile struct {
	fs    *FaultFS
	inner File
}

// Write implements File. An injected ENOSPC either drops the whole
// write or lands a proper prefix first (short write) — both poison the
// store above, which is the contract under test.
func (f *faultFile) Write(p []byte) (int, error) {
	if f.fs.armed.Load() {
		f.fs.mu.Lock()
		f.fs.stats.Ops++
		whole := f.fs.draw(f.fs.cfg.WriteErrProb)
		short := !whole && len(p) > 1 && f.fs.draw(f.fs.cfg.ShortWriteProb)
		keep := 0
		if short {
			keep = 1 + f.fs.rng.Intn(len(p)-1)
			f.fs.stats.ShortWrites++
		}
		if whole {
			f.fs.stats.WriteFaults++
		}
		f.fs.mu.Unlock()
		if whole {
			return 0, ErrNoSpace
		}
		if short {
			n, err := f.inner.Write(p[:keep])
			if err != nil {
				return n, err
			}
			return n, ErrNoSpace
		}
	}
	return f.inner.Write(p)
}

// Sync implements File: the durability ack itself can fail.
func (f *faultFile) Sync() error {
	if f.fs.armed.Load() {
		f.fs.mu.Lock()
		f.fs.stats.Ops++
		fault := f.fs.draw(f.fs.cfg.SyncErrProb)
		if fault {
			f.fs.stats.SyncFaults++
		}
		f.fs.mu.Unlock()
		if fault {
			return ErrIOFault
		}
	}
	return f.inner.Sync()
}

// Close implements File. Close is never faulted: the interesting
// failures happen at the durability barriers, and a store that survives
// those handles close trivially.
func (f *faultFile) Close() error { return f.inner.Close() }
