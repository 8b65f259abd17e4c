package main

import (
	"bytes"
	"compress/flate"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// The machine's speed drifts: on a shared host, the same workload can
// take 1.8 times as long from one minute to the next, and user and
// system CPU time grow with it. The benchmark therefore times a fixed
// reference load, the calibration, before every workload process, in
// its pauses and after it, and rescales the process's times by the
// machine's speed: the calibration's nominal time over the mean of the
// two calibrations around each stretch of work. Wall times are rescaled
// by the calibration's wall time, CPU times by its CPU time. End-to-end
// times are reported in these reference seconds; the raw seconds are
// printed beside them.
//
// The calibration mixes integer arithmetic, an L2-resident random
// walk, map and slice work that allocates and collects, and DEFLATE
// compression, on both cores. Memory-bound walks over larger working
// sets were left out: on this class of host they are noisier than the
// workloads themselves.

// calNominal is about the calibration's wall and CPU time on the
// machine the baselines in bench/README.md were measured on (a 2-vCPU
// Intel Xeon VM), so that reference seconds read roughly as seconds
// there. Changing it rescales every time the benchmark reports.
var calNominal = calTime{wall: 0.28, cpu: 0.56}

// calTime is one calibration's wall seconds and the CPU seconds the
// benchmark process spent in it.
type calTime struct{ wall, cpu float64 }

// calibration is the reference load, with its working memory
// allocated once.
type calibration struct {
	walk    [cores][]uint64
	deflate []byte
}

func newCalibration() *calibration {
	c := &calibration{}
	for g := range c.walk {
		c.walk[g] = make([]uint64, 32<<10) // 256 KiB
		for i := range c.walk[g] {
			c.walk[g][i] = uint64(i)
		}
	}
	r := rand.New(rand.NewSource(1))
	var b bytes.Buffer
	for b.Len() < 512<<10 {
		b.WriteString(strconv.Itoa(r.Intn(1000)))
		b.WriteByte(' ')
	}
	c.deflate = b.Bytes()
	c.run() // first touch and first allocations
	return c
}

// run performs the reference load on both cores and times it.
func (c *calibration) run() calTime {
	cpu0 := processCPU()
	start := time.Now()
	var wg sync.WaitGroup
	sums := make([]uint64, cores)
	for g := 0; g < cores; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sums[g] = xorshift(32_000_000) + walk(c.walk[g], 25_000_000, uint64(g+1)) +
				mapsAndSort(int64(g)) + mapsAndSort(int64(g+cores)) + compress(c.deflate)
		}(g)
	}
	wg.Wait()
	calSink = sums[0] + sums[1]
	return calTime{wall: time.Since(start).Seconds(), cpu: processCPU() - cpu0}
}

// processCPU is the user and system seconds this process has used.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// calSink keeps the calibration's results live.
var calSink uint64

func xorshift(n int) uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// walk updates n pseudo-random words of mem, whose length is a power of
// two.
func walk(mem []uint64, n int, seed uint64) uint64 {
	x, s := seed|1, uint64(0)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & uint64(len(mem)-1)
		s += mem[j]
		mem[j] = s
	}
	return s
}

func mapsAndSort(seed int64) uint64 {
	r := rand.New(rand.NewSource(seed))
	m := map[uint64]uint64{}
	var s []uint64
	for i := 0; i < 200_000; i++ {
		k := r.Uint64() % 50_000
		m[k] += uint64(i)
		s = append(s, k)
	}
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s[len(s)/2] + uint64(len(m))
}

func compress(in []byte) uint64 {
	var out bytes.Buffer
	w, _ := flate.NewWriter(&out, 6)
	w.Write(in)
	w.Close()
	return uint64(out.Len())
}
