// Package loadgen is the serving-shaped benchmark instrument: a traffic
// generator that drives configurable read/update mixes against a live
// ttcserve and reports tail latencies (p50/p90/p99/p999/max) per endpoint
// from a coordinated-omission-safe histogram. Reads run closed-loop (each
// worker issues its next request when the previous answer arrives —
// measuring service time under concurrency); updates run open-loop (ops
// are dispatched on a fixed schedule regardless of how fast the server
// answers, and each op's latency is measured from its *intended* start
// time, so a stalled server's backlog shows up in the percentiles instead
// of being silently omitted). That asymmetry mirrors production: readers
// wait for answers, but the update stream arrives at the rate the world
// generates events.
package loadgen

import (
	"math"
	"math/bits"
)

// Histogram is a log-linear latency histogram in the HdrHistogram style:
// values below 64 land in unit-width buckets, larger values in 64 linear
// sub-buckets per power of two, giving a worst-case quantile error of
// ~1.6% across the full int64 nanosecond range with a fixed ~30 KiB
// footprint and O(1) recording. The zero value is ready to use. Not safe
// for concurrent use: each closed-loop read worker records into its own
// and the runner Merges them at exit; the open-loop updater's concurrent
// op completions share one behind the endpoint tally's mutex.
type Histogram struct {
	counts [histBuckets]uint64
	count  uint64
	sum    int64
	max    int64
	min    int64
}

const (
	// histSubBits is the per-power-of-two resolution: 2^6 = 64 sub-buckets.
	histSubBits = 6
	histSub     = 1 << histSubBits
	// Exponents 6..62 each get histSub buckets after the 64 unit buckets.
	histBuckets = histSub + (63-histSubBits)*histSub
)

// bucketIdx maps a non-negative value to its bucket.
func bucketIdx(v int64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // highest set bit, >= histSubBits
	sub := int((v >> (uint(e) - histSubBits)) & (histSub - 1))
	return histSub + (e-histSubBits)*histSub + sub
}

// bucketHigh is the largest value a bucket holds — the conservative
// (upper-edge) representative Quantile reports.
func bucketHigh(idx int) int64 {
	if idx < histSub {
		return int64(idx)
	}
	e := (idx-histSub)/histSub + histSubBits
	sub := (idx - histSub) % histSub
	return (int64(histSub+sub+1) << (uint(e) - histSubBits)) - 1
}

// bucketLow is the smallest value a bucket holds.
func bucketLow(idx int) int64 {
	if idx < histSub {
		return int64(idx)
	}
	e := (idx-histSub)/histSub + histSubBits
	sub := (idx - histSub) % histSub
	return int64(histSub+sub) << (uint(e) - histSubBits)
}

// Record adds one observation (negative values clamp to zero).
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIdx(v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Count reports the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count }

// Max reports the exact largest recorded value (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// Mean reports the exact arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile reports the value at or below which a q fraction of the
// observations fall, as the containing bucket's upper edge (so the answer
// errs pessimistic, never optimistic — the right bias for a latency SLO).
// q is clamped to [0, 1]; an empty histogram reports 0.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if hi := bucketHigh(i); hi < h.max {
				return hi
			}
			return h.max
		}
	}
	return h.max
}

// Merge folds another histogram's observations in.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
}

// Bucket is one non-empty histogram bucket, for the raw JSON dump (so the
// artifact preserves the full distribution, not just the headline
// quantiles).
type Bucket struct {
	LowNs  int64  `json:"lowNs"`
	HighNs int64  `json:"highNs"`
	Count  uint64 `json:"count"`
}

// Buckets returns the non-empty buckets in ascending value order.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	for i, c := range h.counts {
		if c != 0 {
			out = append(out, Bucket{LowNs: bucketLow(i), HighNs: bucketHigh(i), Count: c})
		}
	}
	return out
}
