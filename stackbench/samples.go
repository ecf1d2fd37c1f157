package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// sampleStore holds the latency samples of every repetition of a run in
// anonymous memory outside the Go heap, so that heap_live_mb measures the
// serving stack rather than the benchmark's own growing sample record.
type sampleStore struct {
	mem  []byte
	all  []int64 // every sample stored so far
	size int
}

func newSampleStore(n int) (*sampleStore, error) {
	mem, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map %d latency samples: %w", n, err)
	}
	return &sampleStore{mem: mem, all: unsafe.Slice((*int64)(unsafe.Pointer(&mem[0])), n)[:0], size: n}, nil
}

// next returns an empty slice with room for n samples after those stored.
// The caller appends at most n samples and hands the slice back to commit.
func (s *sampleStore) next(n int) ([]int64, error) {
	if len(s.all)+n > s.size {
		return nil, fmt.Errorf("latency store full: %d + %d > %d samples", len(s.all), n, s.size)
	}
	return s.all[len(s.all) : len(s.all) : len(s.all)+n], nil
}

// commit records the samples appended to a slice from next.
func (s *sampleStore) commit(got []int64) { s.all = s.all[:len(s.all)+len(got)] }

// close releases the memory; samples read afterwards are invalid.
func (s *sampleStore) close() error {
	s.all = nil
	return syscall.Munmap(s.mem)
}
