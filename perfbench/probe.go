package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"time"
)

// The host probe: a fixed piece of CPU and memory work, independent of the
// engine, timed on every CPU between a workload's measured units. The
// shared hosts this benchmark runs on change speed with their neighbours'
// load: steal and contention made the same pass take 2.9 s in one run and
// 4.7 s in the next. Scaling a measured time by probeRefS ÷ the probe time
// around it takes that drift out, while a change to the engine moves the
// measured time and not the probe. Every gated time is scaled this way; the
// record keeps the raw times and the probe times beside them.
//
// probeRefS is the probe's time on the reference host (2 vCPUs of an Intel
// Xeon Sapphire Rapids, quiet), so a scaled time reads as it would there.
const probeRefS = 0.05

// probeRepeats is how many times the work runs per probe; the probe reads
// the median.
const probeRepeats = 7

// probeBuf is one CPU's working memory, allocated once so the probe itself
// leaves the garbage collector nothing to do.
type probeBuf struct {
	xs   []uint64
	m    map[uint64]uint32
	text []byte
	sink uint64
}

var probeBufs []*probeBuf

// probe runs the fixed work probeRepeats times, each time once per CPU in
// parallel, and returns the median over repeats of the mean time one CPU
// took (s). The mean over CPUs, rather than the slower CPU's time, keeps a
// single interrupted CPU from setting the figure.
func probe() float64 {
	n := runtime.GOMAXPROCS(0)
	for len(probeBufs) < n {
		probeBufs = append(probeBufs, &probeBuf{
			xs: make([]uint64, 1<<18), m: make(map[uint64]uint32, 1<<16), text: make([]byte, 0, 1<<19),
		})
	}
	runtime.GC()
	took := make([]time.Duration, n)
	var means []float64
	for r := 0; r < probeRepeats; r++ {
		var wg sync.WaitGroup
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				start := time.Now()
				probeBufs[g].work(uint64(g + 1))
				took[g] = time.Since(start)
			}(g)
		}
		wg.Wait()
		var sum time.Duration
		for _, d := range took {
			sum += d
		}
		means = append(means, sum.Seconds()/float64(n))
	}
	return median(means)
}

// work is what an engine does most, in fixed amounts: sort, hash, and
// format and parse numbers.
func (b *probeBuf) work(seed uint64) {
	x := seed*0x9e3779b97f4a7c15 | 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range b.xs {
		b.xs[i] = next()
	}
	slices.Sort(b.xs)
	clear(b.m)
	for i := 0; i < 1<<16; i++ {
		b.m[next()&(1<<17-1)]++
	}
	var sum uint64
	for i := uint64(0); i < 1<<16; i++ {
		sum += uint64(b.m[i])
	}
	b.text = b.text[:0]
	for i := 0; i < 1<<15; i++ {
		start := len(b.text)
		b.text = strconv.AppendUint(b.text, b.xs[i]>>20, 10)
		var v uint64
		for _, c := range b.text[start:] {
			v = v*10 + uint64(c-'0')
		}
		sum += v
	}
	b.sink = sum + b.xs[len(b.xs)/2]
}

// hostFactor takes a figure measured between two probes to the reference
// host: multiply a time by it, divide a rate by it.
func hostFactor(probeBefore, probeAfter float64) float64 {
	return probeRefS / ((probeBefore + probeAfter) / 2)
}

// meter brackets a workload's measured units (a report pass, a quarter of
// the serve base-rate phase, a serve capacity unit, an ingest round). It
// runs the host probe before the first unit and after each one, and
// measures each unit's wall time, process CPU time and peak resident set.
type meter struct {
	probes []float64 // one more than there are units
	walls  []float64 // each unit's wall time (s)
	peaks  []float64 // each unit's peak resident set (MB)
	cpuS   float64   // the units' process CPU time, probes excluded
	reset  bool      // whether the kernel's peak count could be restarted
}

// newMeter starts the measured phase: it records the set-up's peak
// resident set in the outcome, returns the memory set-up freed to the OS,
// and runs the first probe.
func newMeter(out *outcome) *meter {
	out.Workload["setup_peak_rss_mb"] = peakRSSMB()
	debug.FreeOSMemory()
	return &meter{probes: []float64{probe()}}
}

// unit runs one measured unit, then the probe after it. The peak resident
// set count restarts (clear_refs 5) at the unit's start, so the unit's peak
// excludes set-up, data generation and the oracle's construction.
func (m *meter) unit(run func() error) error {
	m.reset = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
	clock := startPhase()
	err := run()
	wallS, cpuS, _ := clock.stop()
	m.walls = append(m.walls, wallS)
	m.cpuS += cpuS
	m.peaks = append(m.peaks, peakRSSMB())
	m.probes = append(m.probes, probe())
	return err
}

// factor is unit i's host factor (see hostFactor).
func (m *meter) factor(i int) float64 { return hostFactor(m.probes[i], m.probes[i+1]) }

// record puts the median unit peak in the outcome as peak_rss_mb, with the
// probes, unit times and peaks behind it.
func (m *meter) record(out *outcome) {
	out.E2E["peak_rss_mb"] = median(m.peaks)
	out.Notes["probes_s"] = m.probes
	out.Notes["unit_walls_s"] = m.walls
	out.Notes["unit_peak_rss_mb"] = m.peaks
	out.Notes["peak_rss_reset"] = m.reset
}
