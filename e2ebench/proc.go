package main

// Process-level probes: CPU time, allocation counters, GC cycles and the
// live heap, read from outside the program under test.

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
	"unsafe"
)

// Linux clock ids for clock_gettime.
const (
	clockProcessCPUTimeID = 2 // CLOCK_PROCESS_CPUTIME_ID: all the process's threads
	clockThreadCPUTimeID  = 3 // CLOCK_THREAD_CPUTIME_ID: the calling thread
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// threadCPU is the calling OS thread's CPU time. The caller must have
// locked its goroutine to the thread (runtime.LockOSThread).
func threadCPU() time.Duration { return cpuClock(clockThreadCPUTimeID) }

// processCPU is the CPU time of all the process's threads, the garbage
// collector and the in-process server included. Time the host gives to
// other guests does not count.
func processCPU() time.Duration { return cpuClock(clockProcessCPUTimeID) }

// runtimeProbe reads the process's cumulative heap allocations and GC
// cycles. Reading allocates nothing, so a probe around a call counts only
// the call's own allocations. Not safe for concurrent use.
type runtimeProbe []metrics.Sample

func newRuntimeProbe() runtimeProbe {
	return runtimeProbe{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
}

// read returns the allocated objects and bytes and the completed GC cycles
// since the process started.
func (p runtimeProbe) read() (objects, bytes, gcs uint64) {
	metrics.Read(p)
	return p[0].Value.Uint64(), p[1].Value.Uint64(), p[2].Value.Uint64()
}

const liveHeapMetric = "/gc/heap/live:bytes"

// liveHeap collects garbage and returns the bytes still reachable: what
// the process holds, without the garbage awaiting collection.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapWatch averages the live heap over the garbage collections that end
// while it runs. The live heap only changes when a collection ends, so the
// watch polls for new ones.
type heapWatch struct {
	stop chan struct{}
	mean chan float64
}

const heapPollInterval = 2 * time.Millisecond

// watchHeap collects garbage before it starts, so its first reading is what
// is live now and not what the last collection left.
func watchHeap() *heapWatch {
	runtime.GC()
	w := &heapWatch{stop: make(chan struct{}), mean: make(chan float64, 1)}
	go func() {
		s := []metrics.Sample{{Name: liveHeapMetric}, {Name: "/gc/cycles/total:gc-cycles"}}
		tick := time.NewTicker(heapPollInterval)
		defer tick.Stop()
		var sum float64
		var n, cycles uint64
		read := func() {
			metrics.Read(s)
			if c := s[1].Value.Uint64(); c != cycles {
				cycles = c
				sum += float64(s[0].Value.Uint64())
				n++
			}
		}
		for {
			read()
			select {
			case <-w.stop:
				read()
				w.mean <- sum / float64(n)
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// end collects garbage once more, so what is still held at the end counts
// too, stops the watch and returns the mean live heap in bytes.
func (w *heapWatch) end() float64 {
	runtime.GC()
	close(w.stop)
	return <-w.mean
}
