package main

import (
	"fmt"
	"syscall"

	"multihopbandit/internal/benchmeta"
)

// stamp records what a result was measured on and how much data stands
// behind it. It is printed as the line before the result.
type stamp struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Rung     string `json:"rung"`
	benchmeta.Env
	Kernel    string `json:"kernel"`
	DataDirFS string `json:"data_dir_fs"`

	Instances         int    `json:"instances"`
	Networks          int    `json:"networks"`
	Replicas          int    `json:"replicas"`
	SlotsPerStep      int    `json:"slots_per_step,omitempty"`
	BatchesPerObserve int    `json:"batches_per_observe,omitempty"`
	WarmRounds        int    `json:"warm_rounds"`
	TimedRounds       int    `json:"timed_rounds"`
	SlotsPerRep       int64  `json:"slots_per_rep"`
	OpsPerRep         int64  `json:"ops_per_rep"`
	Reps              int    `json:"reps"`
	SustainedReps     int    `json:"sustained_reps,omitempty"`
	P50Samples        int    `json:"p50_samples,omitempty"`
	P99Groups         int    `json:"p99_groups,omitempty"`
	P99Samples        int    `json:"p99_samples"`
	SamplesBeyondP99  int    `json:"samples_beyond_p99"`
	Digest            string `json:"digest"`
}

func (b *bench) newStamp(trace int, top rung, reps int, ls latencySummary) *stamp {
	in, w := b.in, b.in.w
	s := &stamp{
		Workload: w.name, Seed: in.seed, Trace: trace, Rung: top.String(),
		Env:       benchmeta.Capture(),
		Kernel:    kernelRelease(),
		DataDirFS: "none",
		Instances: len(in.specs), Networks: w.networks, Replicas: w.replicas,
		SlotsPerStep: w.stepSlots, BatchesPerObserve: w.obsBatches,
		WarmRounds: in.warmRounds, TimedRounds: in.rounds,
		SlotsPerRep: in.timedSlots(), OpsPerRep: in.timedOps(),
		Reps: reps, P99Samples: ls.samples, SamplesBeyondP99: ls.beyondP99,
		Digest: fmt.Sprintf("%016x", uint64(b.ref.c.d)),
	}
	if w.durable {
		s.DataDirFS = fsType(b.buildDir)
	}
	return s
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	b := make([]byte, 0, len(u.Release))
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	default:
		return fmt.Sprintf("0x%x", uint64(st.Type))
	}
}
