package main

import (
	"bufio"
	"context"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// usage is a process resource reading at one instant.
type usage struct {
	cpu    time.Duration // user + system CPU
	allocs uint64        // cumulative heap allocation, bytes
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return usage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: s[0].Value.Uint64(),
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, os.ErrNotExist
}

// window is one timed closed-loop run.
type window struct {
	replies []reply
	elapsed time.Duration
	used    usage // resources spent over the window
}

// drive runs `clients` closed-loop clients against st for d: each
// sends request i (drawn from a shared counter, so the order requests
// leave in is fixed) and only sends its next one after the reply
// arrives. The window ends when the last reply started before d has
// arrived.
func drive(ctx context.Context, w workload, st *stack, clients int, d time.Duration) window {
	runtime.GC()
	u0 := readUsage()
	start := time.Now()
	deadline := start.Add(d)
	var next atomic.Int64
	per := make([][]reply, clients)
	var wg sync.WaitGroup
	for k := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				per[k] = append(per[k], w.send(ctx, st.c, int(next.Add(1))-1))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	u1 := readUsage()
	var all []reply
	for _, rs := range per {
		all = append(all, rs...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].i < all[b].i })
	return window{
		replies: all,
		elapsed: elapsed,
		used:    usage{cpu: u1.cpu - u0.cpu, allocs: u1.allocs - u0.allocs},
	}
}

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks, and 0 for an empty sample (a run in which
// every request failed, which reports correct: false).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
