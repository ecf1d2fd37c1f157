package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/url"
	"os"
	"path/filepath"

	"multihopbandit/internal/core"
	"multihopbandit/internal/spec"
	"multihopbandit/internal/wal"
)

// The durability layer persists opted-in instances under the registry's
// data directory:
//
//	<data-dir>/instances/<escaped id>/
//	    meta.json                   identity: id + canonical spec + persist knobs
//	    snapshot.json               latest learner+loop snapshot (atomic replace)
//	    wal-<start slot 016d>.log   observation segments, rotated at snapshots
//
// Every applied slot — a self-simulation step or an external observation
// batch — appends one WAL record before the request completes; snapshots
// are an optimization bounding replay length, taken every SnapshotEvery
// applied slots and atomically published. Recovery (Registry.Recover)
// restores the snapshot and replays the log tail through the same
// StepExternal path the serving runtime uses, so the recovered learner is
// bit-identical to the uninterrupted one. A restore replaces the on-disk
// trajectory as a whole: the restored state becomes the snapshot and the
// log starts afresh at its slot (see endRestore).
//
// Sampler (environment) state is intentionally not persisted: the WAL
// records realized rewards, which is all the learner consumed. A recovered
// self-simulating instance has an exact learner over a restarted channel
// process — the learner's history is preserved, the future of the
// simulated environment is not. External-observation instances (the
// production mode) recover exactly in every respect.

// persistMetaVersion versions meta.json; bump on any meta layout change.
const persistMetaVersion = 1

const (
	instancesSubdir = "instances"
	metaFile        = "meta.json"
	snapshotFile    = "snapshot.json"
)

// PersistOptions configures the registry's durability layer.
type PersistOptions struct {
	// DataDir roots the on-disk state; empty disables persistence entirely
	// (spec persist blocks are then inert).
	DataDir string
	// All persists every instance, even those whose spec does not opt in.
	All bool
	// SnapshotEvery is the snapshot cadence (applied slots) for instances
	// persisted via All whose spec does not set one (default 512).
	SnapshotEvery int
	// Fsync is the WAL sync policy for instances persisted via All whose
	// spec does not set one: "always", "batch" (default) or "none".
	Fsync string
}

// InstanceMeta is the identity file of one persisted instance: everything
// needed to rebuild it from its directory.
type InstanceMeta struct {
	V  int    `json:"v"`
	ID string `json:"id"`
	// Spec is the canonical scenario spec the instance was created from.
	Spec spec.ScenarioSpec `json:"spec"`
	// Persist are the effective persistence knobs (the spec's own block, or
	// the registry defaults when -persist-all forced persistence on).
	Persist spec.PersistSpec `json:"persist"`
}

// instanceDirName maps an instance ID to a filesystem-safe directory name.
// The "id-" prefix rules out "." / ".." and hidden names; PathEscape
// removes separators. The real ID lives in meta.json — the directory name
// is never parsed back.
func instanceDirName(id string) string {
	return "id-" + url.PathEscape(id)
}

// effectivePersist resolves the persistence knobs for a canonical spec: the
// spec's own block when it opts in, the registry defaults under All, or
// disabled.
func (r *Registry) effectivePersist(canon spec.ScenarioSpec) (spec.PersistSpec, bool) {
	if r.persist.DataDir == "" {
		return spec.PersistSpec{}, false
	}
	if canon.Persist.Enabled {
		return canon.Persist, true
	}
	if !r.persist.All {
		return spec.PersistSpec{}, false
	}
	p := spec.PersistSpec{
		Enabled:       true,
		SnapshotEvery: r.persist.SnapshotEvery,
		Fsync:         r.persist.Fsync,
	}
	if p.SnapshotEvery <= 0 {
		p.SnapshotEvery = 512
	}
	if p.Fsync == "" {
		p.Fsync = spec.FsyncBatch
	}
	return p, true
}

// instanceDir returns the on-disk directory of a persisted instance.
func (r *Registry) instanceDir(id string) string {
	return filepath.Join(r.persist.DataDir, instancesSubdir, instanceDirName(id))
}

// persister is one instance's durability state. It is owned by the actor
// goroutine (it implements core.SlotObserver on the actor's step paths), so
// no locking: the same confinement that makes the loop race-free covers it.
type persister struct {
	dir      string
	opts     spec.PersistSpec
	log      *wal.Log
	counters *ShardCounters
	// appliedSinceSnapshot counts WAL records since the last snapshot.
	appliedSinceSnapshot int
	// err is the first durability failure. Persistence is fail-open: the
	// instance keeps serving, appends stop, and the failure is visible in
	// the wal_errors counter — an operator decision documented in
	// OPERATIONS.md.
	err error
}

func (p *persister) fail(err error) {
	if p.err == nil {
		p.err = err
		p.counters.WALErrors.Add(1)
	}
}

// OnSlot implements core.SlotObserver: one WAL record per applied slot.
func (p *persister) OnSlot(v *core.SlotView) {
	if p.err != nil {
		return
	}
	if err := p.log.Append(wal.Record{Slot: v.Slot, Played: v.Played, Rewards: v.Rewards}); err != nil {
		p.fail(err)
		return
	}
	p.counters.WALAppends.Add(1)
	p.counters.WALAppendBytes.Add(int64(p.log.AppendedBytes()))
	if p.opts.Fsync == spec.FsyncAlways {
		p.counters.WALFsyncs.Add(1)
	}
	p.appliedSinceSnapshot++
}

// observer returns the slot observer the actor threads into the kernel, or
// nil when the instance is not persisted.
func (a *actor) observer() core.SlotObserver {
	if a.persist == nil {
		return nil
	}
	return a.persist
}

// persistAfterRequest runs the per-request durability work: sync the batch
// (under the batch fsync policy) and snapshot when the cadence is due.
func (a *actor) persistAfterRequest() {
	p := a.persist
	if p == nil || p.err != nil {
		return
	}
	if p.opts.Fsync == spec.FsyncBatch && p.log.Dirty() {
		if err := p.log.Sync(); err != nil {
			p.fail(err)
			return
		}
		p.counters.WALFsyncs.Add(1)
	}
	if p.appliedSinceSnapshot >= p.opts.SnapshotEvery {
		a.persistSnapshot(true)
	}
}

// persistSnapshot publishes a snapshot; with rotate it also starts a fresh
// WAL segment at the snapshot slot and collects superseded segments (unless
// keep_log retains them). The log is synced before the snapshot is
// published, so the snapshot never gets ahead of the durable log.
func (a *actor) persistSnapshot(rotate bool) {
	p := a.persist
	if err := p.log.Sync(); err != nil {
		p.fail(err)
		return
	}
	a.writeSnapshot()
	if p.err != nil || !rotate {
		return
	}
	if err := p.log.Close(); err != nil {
		p.fail(err)
		return
	}
	slot := a.loop.Slot()
	p.startSegment(slot)
	if p.err == nil && !p.opts.KeepLog {
		_ = p.removeSegments(slot) // GC is advisory; the next rotation retries
	}
}

// writeSnapshot atomically replaces the snapshot file with the actor's
// current state.
func (a *actor) writeSnapshot() {
	p := a.persist
	blob, err := json.Marshal(a.snapshot())
	if err != nil {
		p.fail(err)
		return
	}
	if err := wal.WriteFileAtomic(filepath.Join(p.dir, snapshotFile), blob); err != nil {
		p.fail(err)
		return
	}
	p.counters.WALSnapshots.Add(1)
	p.appliedSinceSnapshot = 0
}

// beginRestore runs before a restore changes the instance: it publishes the
// current state, so no segment holds a record that recovery from a crash
// before endRestore completes would need.
func (a *actor) beginRestore() {
	if p := a.persist; p != nil && p.err == nil {
		a.persistSnapshot(false)
	}
}

// endRestore makes a successful restore durable before the reply. Every
// segment holds records of the abandoned trajectory, so all of them go,
// under keep_log too: the recorded history restarts at the restore. Then
// the restored state is published and a fresh segment starts at its slot.
// A crash at any point of beginRestore, the restore and endRestore recovers
// either the state before the restore or the state after it.
func (a *actor) endRestore() {
	p := a.persist
	if p == nil || p.err != nil {
		return
	}
	if err := p.log.Close(); err != nil {
		p.fail(err)
		return
	}
	if err := p.removeSegments(math.MaxInt); err != nil {
		p.fail(err)
		return
	}
	a.writeSnapshot()
	if p.err == nil {
		p.startSegment(a.loop.Slot())
	}
}

// startSegment makes a fresh segment at slot the append target.
func (p *persister) startSegment(slot int) {
	log, err := createSegment(p.dir, slot, p.opts.Fsync)
	if err != nil {
		p.fail(err)
		return
	}
	p.log = log
}

// removeSegments deletes every segment that starts before slot.
func (p *persister) removeSegments(before int) error {
	names, starts, err := wal.ListSegments(p.dir)
	if err != nil {
		return err
	}
	for i, name := range names {
		if starts[i] < before {
			if err := os.Remove(filepath.Join(p.dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// createSegment starts the segment of dir that holds records from slot on.
func createSegment(dir string, slot int, fsync string) (*wal.Log, error) {
	return wal.Create(filepath.Join(dir, wal.SegmentName(slot)), slot, wal.SyncPolicy(fsync))
}

// persistFinal is the actor's exit hook: a last snapshot (no rotation) and
// a clean log close. Skipped entirely on an abrupt close, which is what
// makes CloseAbrupt a faithful in-process SIGKILL for the crash-recovery
// tests.
func (a *actor) persistFinal() {
	p := a.persist
	if p == nil {
		return
	}
	if a.abrupt != nil && a.abrupt.Load() {
		return
	}
	if p.err != nil {
		return
	}
	a.persistSnapshot(false)
	if err := p.log.Close(); err != nil {
		p.fail(err)
	}
}

// setupPersist creates the on-disk state of a newly created instance: a
// fresh directory (clobbering leftovers of an older same-name instance —
// Create means a new trajectory), meta.json, and the first WAL segment.
func (r *Registry) setupPersist(id string, canon spec.ScenarioSpec, opts spec.PersistSpec, counters *ShardCounters) (*persister, error) {
	dir := r.instanceDir(id)
	if err := os.RemoveAll(dir); err != nil {
		return nil, fmt.Errorf("serve: reset instance dir: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: create instance dir: %w", err)
	}
	meta := InstanceMeta{V: persistMetaVersion, ID: id, Spec: canon, Persist: opts}
	blob, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("serve: encode instance meta: %w", err)
	}
	if err := wal.WriteFileAtomic(filepath.Join(dir, metaFile), blob); err != nil {
		return nil, err
	}
	log, err := createSegment(dir, 0, opts.Fsync)
	if err != nil {
		return nil, err
	}
	return &persister{dir: dir, opts: opts, log: log, counters: counters}, nil
}

// readMeta loads and validates an instance directory's meta.json.
func readMeta(dir string) (InstanceMeta, error) {
	blob, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return InstanceMeta{}, fmt.Errorf("serve: read instance meta: %w", err)
	}
	var meta InstanceMeta
	if err := json.Unmarshal(blob, &meta); err != nil {
		return InstanceMeta{}, fmt.Errorf("serve: decode instance meta: %w", err)
	}
	if meta.V != persistMetaVersion {
		return InstanceMeta{}, fmt.Errorf("serve: unsupported instance meta version %d (want %d)", meta.V, persistMetaVersion)
	}
	if meta.ID == "" {
		return InstanceMeta{}, errors.New("serve: instance meta has no id")
	}
	canon, err := meta.Spec.Canonical()
	if err != nil {
		return InstanceMeta{}, fmt.Errorf("serve: instance meta spec: %w", err)
	}
	meta.Spec = canon
	return meta, nil
}

// Recover scans the data directory and rebuilds every persisted instance:
// snapshot restore (when one exists) plus WAL-tail replay through the
// kernel's external-observation path — the exact update sequence the
// learner originally consumed, so the recovered state is bit-identical.
// Instances recover independently; one damaged directory does not block the
// rest. Returns the number recovered and the joined per-instance errors.
func (r *Registry) Recover() (int, error) {
	if r.persist.DataDir == "" {
		return 0, errors.New("serve: recover needs a data directory")
	}
	root := filepath.Join(r.persist.DataDir, instancesSubdir)
	entries, err := os.ReadDir(root)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("serve: scan data dir: %w", err)
	}
	recovered := 0
	var errs []error
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		if err := r.recoverOne(dir); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", e.Name(), err))
			continue
		}
		recovered++
	}
	return recovered, errors.Join(errs...)
}

// recoverOne rebuilds a single instance from its directory.
func (r *Registry) recoverOne(dir string) error {
	meta, err := readMeta(dir)
	if err != nil {
		return err
	}
	loop, learner, err := r.buildLoop(meta.Spec)
	if err != nil {
		return err
	}

	// Restore the latest snapshot, if any.
	snapPath := filepath.Join(dir, snapshotFile)
	if blob, err := os.ReadFile(snapPath); err == nil {
		var snap Snapshot
		if err := json.Unmarshal(blob, &snap); err != nil {
			return fmt.Errorf("serve: decode snapshot: %w", err)
		}
		if err := restoreState(loop, learner, &snap); err != nil {
			return err
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("serve: read snapshot: %w", err)
	}

	// Replay the log tail. The final segment is opened for appending (torn
	// tails repaired); earlier segments are read-only and must be intact.
	names, _, err := wal.ListSegments(dir)
	if err != nil {
		return err
	}
	var log *wal.Log
	for i, name := range names {
		path := filepath.Join(dir, name)
		var recs []wal.Record
		if i == len(names)-1 {
			log, recs, _, err = wal.OpenAppend(path, wal.SyncPolicy(meta.Persist.Fsync))
		} else {
			recs, _, err = wal.ReadSegment(path)
		}
		if err != nil {
			return err
		}
		for _, rec := range recs {
			if rec.Slot < loop.Slot() {
				continue // covered by the snapshot
			}
			if rec.Slot > loop.Slot() {
				if log != nil {
					log.Close()
				}
				return fmt.Errorf("serve: wal gap: next record is slot %d, loop is at slot %d", rec.Slot, loop.Slot())
			}
			if err := loop.StepExternal(rec.Played, rec.Rewards, nil); err != nil {
				if log != nil {
					log.Close()
				}
				return fmt.Errorf("serve: replay slot %d: %w", rec.Slot, err)
			}
		}
	}
	if log == nil {
		// No segments survived; start a fresh one at the recovered position.
		log, err = createSegment(dir, loop.Slot(), meta.Persist.Fsync)
		if err != nil {
			return err
		}
	}

	if _, err := r.register(meta.ID, meta.Spec, loop, learner, func(counters *ShardCounters) (*persister, error) {
		counters.Recovered.Add(1)
		return &persister{dir: dir, opts: meta.Persist, log: log, counters: counters}, nil
	}); err != nil {
		log.Close()
		return err
	}
	return nil
}

// ReadRecorded loads a persisted instance's identity and its recorded
// observation stream — the input of sim.ReplayScenario. Segments are
// concatenated in start-slot order with duplicate slots dropped (rotation
// keeps slot ranges disjoint; this guards repaired overlaps). For a stream
// replayable from slot 0, record with keep_log enabled so no segment is
// collected.
func ReadRecorded(dir string) (InstanceMeta, []wal.Record, error) {
	meta, err := readMeta(dir)
	if err != nil {
		return InstanceMeta{}, nil, err
	}
	names, _, err := wal.ListSegments(dir)
	if err != nil {
		return InstanceMeta{}, nil, err
	}
	var recs []wal.Record
	next := -1
	for _, name := range names {
		segRecs, _, err := wal.ReadSegment(filepath.Join(dir, name))
		if err != nil {
			return InstanceMeta{}, nil, err
		}
		for _, rec := range segRecs {
			if rec.Slot <= next {
				continue
			}
			recs = append(recs, rec)
			next = rec.Slot
		}
	}
	return meta, recs, nil
}
