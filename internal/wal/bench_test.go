package wal

import (
	"path/filepath"
	"testing"
)

// BenchmarkAppend times the serving hot path's write-ahead append under
// each fsync policy: one 8-arm observation record per op, the shape a
// served N=10 instance logs, on a fresh segment. The timed loop ends with
// one Sync, as a served request batch does. B/record is the last frame's
// size, which the slot's varint makes a byte or two longer as slots grow.
func BenchmarkAppend(b *testing.B) {
	played := make([]int, 8)
	rewards := make([]float64, 8)
	for i := range played {
		played[i] = i * 3
		rewards[i] = float64(i) / 8
	}
	for _, policy := range []SyncPolicy{SyncNone, SyncBatch, SyncAlways} {
		b.Run(string(policy), func(b *testing.B) {
			lg, err := Create(filepath.Join(b.TempDir(), SegmentName(0)), 0, policy)
			if err != nil {
				b.Fatal(err)
			}
			defer lg.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := lg.Append(Record{Slot: i, Played: played, Rewards: rewards}); err != nil {
					b.Fatal(err)
				}
			}
			if err := lg.Sync(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(lg.AppendedBytes()), "B/record")
		})
	}
}
