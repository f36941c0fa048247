package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark host is a shared 2-vCPU virtual machine whose speed
// drifts by ±20% and more over seconds to minutes, for a plain integer
// loop as much as for the simulator. Every repetition therefore also
// times a fixed reference task just before and just after its timed
// window, and the end-to-end host times are reported in reference
// seconds: host seconds scaled by calRefNS over the reference task's
// measured time. The reference task runs no simulator code, so a change
// to the simulator moves the scaled times as it moves the raw ones; the
// raw host times stay in the run record.

// calRefNS is the reference task's typical duration on the machine the
// benchmark was tuned on (2 vCPUs of a 2.1 GHz Xeon), so reference
// seconds read close to host seconds there.
const calRefNS = 175e6

const (
	calTableLen = 8 << 20 // entries per goroutine (32 MiB)
	calLoop     = 10_000_000
	calWalk     = 1_000_000
)

// calibrator runs the reference task on as many goroutines as the
// workload has workers: each runs an integer loop (core speed), then a
// dependent random walk over its own table (shared-cache and memory
// latency, which the simulator also depends on). The tables are mapped
// outside the Go heap, so they neither pace the simulator's garbage
// collections nor count in its heap figures; mappedBytes lets the peak
// resident set be reported without them.
type calibrator struct {
	tables      [][]uint32
	mappedBytes int64
}

func newCalibrator(workers int) (*calibrator, error) {
	c := &calibrator{tables: make([][]uint32, workers)}
	for w := range c.tables {
		mem, err := syscall.Mmap(-1, 0, calTableLen*4, syscall.PROT_READ|syscall.PROT_WRITE,
			syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_POPULATE)
		if err != nil {
			return nil, err
		}
		c.mappedBytes += int64(len(mem))
		t := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), calTableLen)
		for i := range t {
			t[i] = uint32(i)
		}
		// Sattolo's algorithm: one cycle through the whole table, in an
		// order no prefetcher follows.
		x := uint64(0x9e3779b97f4a7c15) + uint64(w)
		for i := len(t) - 1; i > 0; i-- {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			j := int(x % uint64(i))
			t[i], t[j] = t[j], t[i]
		}
		c.tables[w] = t
	}
	return c, nil
}

// calSink keeps the reference task's results alive.
var calSink uint64

// run collects garbage (so no collection lands inside the task) and
// times one pass of the reference task; a nil calibrator returns 0.
func (c *calibrator) run() int64 {
	if c == nil {
		return 0
	}
	runtime.GC()
	t0 := time.Now()
	var wg sync.WaitGroup
	out := make([]uint64, len(c.tables))
	for w := range c.tables {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			x := uint64(w + 1)
			for i := 0; i < calLoop; i++ {
				x = x*6364136223846793005 + 1442695040888963407
			}
			t, j := c.tables[w], uint32(x%calTableLen)
			for i := 0; i < calWalk; i++ {
				j = t[j]
			}
			out[w] = x + uint64(j)
		}(w)
	}
	wg.Wait()
	for _, v := range out {
		calSink += v
	}
	return int64(time.Since(t0))
}

// refSeconds converts a host time in ns to reference seconds, given the
// reference task's time measured alongside it (0: not measured, plain
// host seconds).
func refSeconds(ns, calNS int64) float64 {
	if calNS <= 0 {
		return float64(ns) / 1e9
	}
	return float64(ns) / float64(calNS) * calRefNS / 1e9
}
