package main

import "time"

// The host reference. This benchmark was built on a small virtual machine
// whose memory system is shared with other tenants: the same code runs 20-50%
// slower for minutes at a time, and every layer of this program (hash-table
// probes, FP-tree walks, map lookups, JSON) is bound by memory latency, so
// every metric drifts together. No amount of repetition inside one run
// averages a minutes-long phase away. What does track it is a fixed
// memory-latency kernel run beside the measured work: dividing by it took the
// run-to-run spread of mine_s, recommend_p50_ms and serve_qps from 12-50% to
// 3-10% on the host's bad days, and leaves them where they were on its good
// ones (bench/README.md has the measurements).
//
// So every end-to-end time is reported at reference host speed:
//
//	reported = median(measured) x hostRefNominal / median(kernel beside it)
//
// and the raw median is kept next to it in results.json. alloc_mb and every
// count are never scaled. Per-layer times of the traced run stay raw.

// hostRefNominal is the kernel's time on the sizing host when it is quiet, so
// that on a quiet host reported and measured times agree.
const hostRefNominal = 0.027

var (
	hostRefTable = make([]uint32, 1<<24) // 64 MB: far beyond any cache level
	hostRefSink  uint32
)

// hostRef runs the reference kernel once and returns its wall-clock seconds:
// two million dependent read-modify-writes at pseudo-random places of a
// 64 MB table.
func hostRef() float64 {
	t0 := time.Now()
	x, s := uint32(12345), uint32(0)
	for i := 0; i < 2_000_000; i++ {
		x = x*1664525 + 1013904223
		s += hostRefTable[x>>8]
		hostRefTable[x>>8] = s
	}
	hostRefSink = s
	return time.Since(t0).Seconds()
}

// hostSpeed is the factor that brings a time measured beside the given
// kernel samples to reference host speed (rates divide by it).
func hostSpeed(ref []float64) float64 {
	return hostRefNominal / median(ref)
}
