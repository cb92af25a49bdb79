package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// A run builds its fixture from an empty directory at least
// minSetupRepeats times, and more (up to maxSetupRepeats) while less than
// setupBudget has gone, so a cheap set-up still gets a steady median.
// setup_s is the median of the scaled set-up times; the last fixture is the
// one measured. The floor is two because a report set-up alone takes
// 10–15 s on a 2-CPU host, and a run should stay near a minute.
const (
	minSetupRepeats = 2
	maxSetupRepeats = 9
	setupBudget     = 3 * time.Second
)

// engineOptionsNote documents the one engine configuration every workload
// uses: default options except intra-node parallelism 2 and a discarded
// log. No cache is disabled or resized; cache behaviour comes from data
// size and key skew.
const engineOptionsNote = "core.Options{Parallelism: 2, LogWriter: io.Discard}, all else default"

// connections is the most client connections a workload opens: one per CPU,
// and never more than the two the workloads need.
func connections() int {
	return min(2, runtime.NumCPU())
}

// engine is one database served over TCP on a loopback port.
type engine struct {
	db     *core.Database
	srv    *server.Server
	served chan error
}

func openEngine(dir string) (*engine, error) {
	db, err := core.Open(core.Options{Dir: dir, Parallelism: 2, LogWriter: io.Discard})
	if err != nil {
		return nil, err
	}
	srv := server.New(db, server.Config{Addr: "127.0.0.1:0"})
	if err := srv.Listen(); err != nil {
		return nil, err
	}
	e := &engine{db: db, srv: srv, served: make(chan error, 1)}
	go func() { e.served <- srv.Serve() }()
	return e, nil
}

func (e *engine) addr() string { return e.srv.Addr().String() }

// close drains the server and waits for its accept loop to exit. The
// database itself has no Close; its files are removed with the run's
// directory.
func (e *engine) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e.srv.Shutdown(ctx)
	<-e.served
}

// execAll runs set-up statements in process.
func (e *engine) execAll(stmts ...string) error {
	for _, s := range stmts {
		if _, err := e.db.Execute(s); err != nil {
			return fmt.Errorf("%s: %w", strings.Fields(s)[0], err)
		}
	}
	return nil
}

// rosBytes sums the encoded ROS bytes of every projection on every node.
func (e *engine) rosBytes() int64 {
	var total int64
	for _, p := range e.db.Catalog().Projections() {
		for _, n := range e.db.Cluster().Nodes() {
			if mgr, err := n.Mgr(p, e.db.Cluster().ManagerOpts()); err == nil {
				total += mgr.TotalBytes()
			}
		}
	}
	return total
}

// setupTimes are a run's set-up times (s): as measured, the host probes
// around them, and scaled to the reference host (see probe.go).
type setupTimes struct {
	Raw    []float64 `json:"raw"`
	Probes []float64 `json:"probes"`
	Scaled []float64 `json:"scaled"`
}

// setupFixture builds a fixture repeatedly (see minSetupRepeats), each time
// from an empty directory under work, with a host probe before the first
// and after each, and returns the last one with the set-up times. Earlier
// engines are drained and their directories removed.
func setupFixture[F any](work string, build func(dir string) (*engine, F, error)) (*engine, F, setupTimes, error) {
	var (
		e  *engine
		fx F
		st setupTimes
	)
	began := time.Now()
	st.Probes = append(st.Probes, probe())
	for i := 0; i < minSetupRepeats || (i < maxSetupRepeats && time.Since(began) < setupBudget); i++ {
		if e != nil {
			e.close()
		}
		dir := filepath.Join(work, fmt.Sprintf("db%d", i))
		if i > 0 {
			os.RemoveAll(filepath.Join(work, fmt.Sprintf("db%d", i-1)))
		}
		runtime.GC()
		start := time.Now()
		var err error
		e, fx, err = build(dir)
		if err != nil {
			return nil, fx, st, fmt.Errorf("setup: %w", err)
		}
		st.Raw = append(st.Raw, time.Since(start).Seconds())
		st.Probes = append(st.Probes, probe())
		st.Scaled = append(st.Scaled, st.Raw[i]*hostFactor(st.Probes[i], st.Probes[i+1]))
	}
	// Drop set-up garbage so it does not bill the measured phase's GC.
	runtime.GC()
	debug.FreeOSMemory()
	return e, fx, st, nil
}

func dialAll(e *engine, n int) ([]*server.Client, error) {
	cs := make([]*server.Client, 0, n)
	for i := 0; i < n; i++ {
		c, err := server.Dial(e.addr())
		if err != nil {
			closeAll(cs)
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func closeAll(cs []*server.Client) {
	for _, c := range cs {
		c.Close()
	}
}

// dataHash fingerprints generated data (fixed-size slices or values), so
// the self-test can tell that a seed changed what was generated.
func dataHash(parts ...any) int64 {
	h := fnv.New64a()
	for _, p := range parts {
		if err := binary.Write(h, binary.LittleEndian, p); err != nil {
			fmt.Fprint(h, p)
		}
	}
	return int64(h.Sum64() >> 1)
}

// --- oracles -------------------------------------------------------------------

// wrongAnswer aborts a run: the engine returned a result the oracle rejects.
type wrongAnswer struct{ msg string }

func (w *wrongAnswer) Error() string { return "wrong answer: " + w.msg }

func wrong(format string, args ...any) error {
	return &wrongAnswer{fmt.Sprintf(format, args...)}
}

func parseF(s string) float64 {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return math.NaN()
	}
	return f
}

func parseI(s string) int64 {
	i, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return math.MinInt64
	}
	return i
}

// --- statistics ---------------------------------------------------------------

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if s[lo] == s[hi] { // also keeps +Inf (a failed statement) from reading NaN
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailQuantile is the highest of p99 and the quantile leaving ten samples
// beyond it, whichever the sample count supports, and reports which it used.
func tailQuantile(xs []float64) (float64, float64) {
	q := 0.99
	if n := float64(len(xs)); n > 0 && 1-10/n < q {
		q = math.Max(0.5, 1-10/n)
	}
	return quantile(xs, q), q
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// --- host -------------------------------------------------------------------------

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Fields(l); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return math.NaN()
}

// phaseClock measures one phase: wall time, the process's CPU time, and the
// host CPU ticks stolen by the hypervisor.
type phaseClock struct {
	wall         time.Time
	cpu          time.Duration
	ticks, steal float64
}

func startPhase() phaseClock {
	ticks, steal := cpuTicks()
	return phaseClock{wall: time.Now(), cpu: processCPU(), ticks: ticks, steal: steal}
}

// stop returns the phase's wall seconds, process CPU seconds and the share
// of host ticks that were stolen.
func (p phaseClock) stop() (wallS, cpuS, stealFrac float64) {
	ticks, steal := cpuTicks()
	return time.Since(p.wall).Seconds(), (processCPU() - p.cpu).Seconds(), ratio(steal-p.steal, ticks-p.ticks)
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks reads the host's total and steal CPU ticks from /proc/stat.
func cpuTicks() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		total += x
		if i == 7 {
			steal = x
		}
	}
	return total, steal
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root, so a
// record names the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
