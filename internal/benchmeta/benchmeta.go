// Package benchmeta stamps benchmark artifacts with the runtime
// environment they were measured in. stackbench's report, distbench's
// BENCH_dist.json and banditload's -json summary embed an Env so a number
// can be read against the parallelism and toolchain that produced it — a
// multi-core sweep recorded on a single-core box says so in the artifact
// itself, not in tribal memory.
package benchmeta

import "runtime"

// Env is the execution environment of one benchmark run.
type Env struct {
	// GoMaxProcs is the effective GOMAXPROCS at measurement time.
	GoMaxProcs int `json:"gomaxprocs"`
	// NumCPU is the machine's logical CPU count.
	NumCPU int `json:"num_cpu"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
}

// Capture reads the current environment.
func Capture() Env {
	return Env{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
}
