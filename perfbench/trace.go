package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dc"
	"repro/internal/encoding"
	"repro/internal/metrics"
	"repro/internal/resmgr"
	"repro/internal/server"
	"repro/internal/types"
	"repro/internal/vector"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the layer's public functions. DC phases of a statement are attached
// as children of its client span, joined on the statement's query id.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"` // 0 for a root span
	Name   string    `json:"name"`
	Stmt   int64     `json:"stmt,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory while a traced run measures. A disabled
// tracer records nothing, so the untraced run pays one branch per call.
type tracer struct {
	on bool
	db *core.Database

	mu     sync.Mutex
	spans  []span
	phases map[int64][]dc.PhaseEvent // by query id
	seen   map[[2]int64]bool         // (query id, seq) already harvested
	locks  []dc.LockEvent
	seenLk map[dc.LockEvent]bool
	stop   chan struct{}
	done   chan struct{}
	once   sync.Once // finish
}

// harvestEvery polls the Data Collector rings. They hold 1024 events each;
// at the traced rates (at most ~600 statements/s, six phases each) a poll
// every 20ms reads well under half a ring.
const harvestEvery = 20 * time.Millisecond

func newTracer(on bool, db *core.Database) *tracer {
	t := &tracer{on: on, db: db}
	if !on || db == nil {
		return t
	}
	t.phases = map[int64][]dc.PhaseEvent{}
	t.seen = map[[2]int64]bool{}
	t.seenLk = map[dc.LockEvent]bool{}
	t.stop = make(chan struct{})
	t.done = make(chan struct{})
	go func() {
		defer close(t.done)
		tick := time.NewTicker(harvestEvery)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
				t.harvest()
			}
		}
	}()
	return t
}

// harvest copies DC phase and lock events not yet seen.
func (t *tracer) harvest() {
	col := t.db.Collector()
	phases, locks := col.Phases(), col.LockEvents()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, p := range phases {
		k := [2]int64{p.QueryID, int64(p.Seq)}
		if p.QueryID == 0 || t.seen[k] {
			continue
		}
		t.seen[k] = true
		t.phases[p.QueryID] = append(t.phases[p.QueryID], p)
	}
	for _, l := range locks {
		if !t.seenLk[l] {
			t.seenLk[l] = true
			t.locks = append(t.locks, l)
		}
	}
}

// finish stops harvesting and attaches each statement's DC phases as
// children of its client span. It is safe to call more than once.
func (t *tracer) finish() {
	if t.stop != nil {
		t.once.Do(t.stopHarvest)
	}
}

func (t *tracer) stopHarvest() {
	close(t.stop)
	<-t.done
	t.harvest()
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.spans)
	for i := 0; i < n; i++ {
		s := t.spans[i]
		if s.Name != "server.exec" || s.Stmt == 0 {
			continue
		}
		for _, p := range t.phases[s.Stmt] {
			t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: s.ID, Name: "dc." + p.Phase,
				Stmt: s.Stmt, Start: p.Start, End: p.Start.Add(p.Duration)})
		}
	}
}

// record adds a finished span and returns its id (0 when tracing is off).
func (t *tracer) record(name string, parent int, stmt int64, start, end time.Time) int {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Stmt: stmt, Start: start, End: end})
	return id
}

// exec runs one statement through the client, as a "server.exec" span.
func (t *tracer) exec(c *server.Client, sqlText string) (*server.Result, time.Duration, error) {
	start := time.Now()
	res, err := c.Exec(sqlText)
	end := time.Now()
	if t.on && err == nil {
		t.record("server.exec", 0, res.QueryID, start, end)
	}
	return res, end.Sub(start), err
}

// timed runs f as a span named name and returns its duration.
func (t *tracer) timed(name string, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	t.record(name, 0, 0, start, end)
	return end.Sub(start), err
}

// byName returns the spans called name.
func (t *tracer) byName(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, for every span called name, its duration minus the
// part of it covered by its children.
func (t *tracer) selfTimes(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && len(kids[s.ID]) > 0 {
			out = append(out, s.dur()-covered(s, kids[s.ID]))
		}
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	var total time.Duration
	cur := parent.Start
	for _, k := range kids {
		s, e := k.Start, k.End
		if s.Before(cur) {
			s = cur
		}
		if e.After(parent.End) {
			e = parent.End
		}
		if e.After(s) {
			total += e.Sub(s)
			cur = e
		}
	}
	return total
}

// phaseUs returns the durations (µs) of one DC phase over the harvested
// statements that also have a client span.
func (t *tracer) phaseUs(phase string) []float64 {
	var out []float64
	for _, s := range t.byName("dc." + phase) {
		out = append(out, float64(s.dur())/1e3)
	}
	return out
}

// dump writes the spans as JSON lines.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- engine counters, read as deltas -------------------------------------------

// counters snapshots the process-global engine counters a run reads; every
// use subtracts a snapshot taken at the start of the measured phase.
type counters struct {
	planHits, planMisses, planReplans int64
	blockHits, blockMisses, evictions int64
	spilledBytes, queueWaitUs         int64
	moveouts, mergeouts               int64
}

func readCounters() counters {
	return counters{
		planHits: metrics.PlanCacheHits.Value(), planMisses: metrics.PlanCacheMisses.Value(),
		planReplans: metrics.PlanCacheReplans.Value(),
		blockHits:   metrics.BlockCacheHits.Value(), blockMisses: metrics.BlockCacheMisses.Value(),
		evictions:    metrics.BlockCacheEvictions.Value(),
		spilledBytes: metrics.SpilledBytes.Value(), queueWaitUs: metrics.QueueWaitUs.Value(),
		moveouts: metrics.TupleMoverMoveouts.Value(), mergeouts: metrics.TupleMoverMergeouts.Value(),
	}
}

func (a counters) since(b counters) counters {
	return counters{
		a.planHits - b.planHits, a.planMisses - b.planMisses, a.planReplans - b.planReplans,
		a.blockHits - b.blockHits, a.blockMisses - b.blockMisses, a.evictions - b.evictions,
		a.spilledBytes - b.spilledBytes, a.queueWaitUs - b.queueWaitUs,
		a.moveouts - b.moveouts, a.mergeouts - b.mergeouts,
	}
}

// ratio is num/den, or 0 when nothing was counted.
func ratio[T int64 | float64](num, den T) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// --- Go runtime -------------------------------------------------------------------

// gcWindow measures the collector between start and stop.
type gcWindow struct {
	gcCPU, allCPU float64
	numGC         uint32
}

// gcCPUSeconds reads the runtime's cumulative GC and total CPU seconds.
func gcCPUSeconds() (gc, total float64) {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func startGC() gcWindow {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	gc, total := gcCPUSeconds()
	return gcWindow{gcCPU: gc, allCPU: total, numGC: m.NumGC}
}

// stop returns the GC's share of CPU time and the p99 stop-the-world pause
// (µs) over the cycles in the window (at most the runtime's last 256).
func (w gcWindow) stop() (cpuFrac, pauseP99Us float64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	gc, total := gcCPUSeconds()
	cpuFrac = ratio(gc-w.gcCPU, total-w.allCPU)
	var pauses []float64
	for n := m.NumGC; n > w.numGC && m.NumGC-n < 256; n-- {
		pauses = append(pauses, float64(m.PauseNs[(n+255)%256])/1e3)
	}
	if len(pauses) > 0 {
		pauseP99Us = quantile(pauses, 0.99)
	}
	return cpuFrac, pauseP99Us
}

// --- executor, via PROFILE ----------------------------------------------------------

// opCategory maps an operator's Describe line to the layer metric its self
// time is billed to.
func opCategory(op string) string {
	word, _, _ := strings.Cut(op, " ")
	word, _, _ = strings.Cut(word, "(")
	switch word {
	case "Scan":
		return "scan"
	case "GroupBy", "GroupByPrepass":
		return "groupby"
	case "HashJoin", "MergeJoin":
		return "join"
	case "Sort":
		return "sort"
	case "Recv", "ParallelUnion", "SerialUnion":
		return "exchange"
	}
	return "other"
}

// opProfile is one PROFILE run's executor breakdown.
type opProfile struct {
	selfMs     map[string]float64 // category -> self time
	scanRows   int64              // rows produced by scans (the query's input)
	allocs     uint64
	allocBytes uint64
}

// profile runs PROFILE <sqlText> through the client, reads the retained
// operator records by query id, and splits their wall time into self time
// per operator category. Allocation counts bracket the statement; PROFILE
// returns no rows, so the client adds almost nothing to them.
func profile(t *tracer, c *server.Client, sqlText string) (opProfile, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res, _, err := t.exec(c, "PROFILE "+sqlText)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return opProfile{}, err
	}
	out := opProfile{selfMs: map[string]float64{},
		allocs: m1.Mallocs - m0.Mallocs, allocBytes: m1.TotalAlloc - m0.TotalAlloc}
	var recs []resmgr.OpProfile
	for _, r := range t.db.Governor().OpProfiles() {
		if r.QueryID == res.QueryID {
			recs = append(recs, r)
		}
	}
	for i, r := range recs {
		self := r.WallUs
		for j := i + 1; j < len(recs) && recs[j].Depth > r.Depth; j++ {
			if recs[j].Depth == r.Depth+1 {
				self -= recs[j].WallUs
			}
		}
		cat := opCategory(r.Op)
		out.selfMs[cat] += float64(max(self, 0)) / 1e3
		if cat == "scan" {
			out.scanRows += r.Rows
		}
	}
	return out, nil
}

// --- encoding, on the workload's generated columns --------------------------------

// encodingBlockRows matches the storage layer's block size;
// encodingSampleRows is how many leading rows encodingStats times.
const (
	encodingBlockRows  = 4096
	encodingSampleRows = 16 * encodingBlockRows
)

// encodingStats times encoding.EncodeBlock / DecodeBlock (Auto) on the
// leading rows of each column and returns per-column and overall figures.
func encodingStats(schema *types.Schema, rows []types.Row) (map[string]map[string]float64, map[string]float64, error) {
	rows = rows[:min(len(rows), encodingSampleRows)]
	perCol := map[string]map[string]float64{}
	var encNs, decNs, bytes, values float64
	for c := 0; c < schema.Len(); c++ {
		col := schema.Col(c)
		var blocks []*vector.Vector
		for lo := 0; lo < len(rows); lo += encodingBlockRows {
			v := vector.New(col.Typ, 0)
			for _, r := range rows[lo:min(lo+encodingBlockRows, len(rows))] {
				v.AppendValue(r[c])
			}
			blocks = append(blocks, v)
		}
		var enc, dec []float64
		var blobBytes int
		for rep := 0; rep < 5; rep++ {
			blobBytes = 0
			var blobs [][]byte
			start := time.Now()
			for _, v := range blocks {
				b, err := encoding.EncodeBlock(encoding.Auto, v)
				if err != nil {
					return nil, nil, err
				}
				blobs = append(blobs, b)
				blobBytes += len(b)
			}
			enc = append(enc, float64(time.Since(start).Nanoseconds()))
			start = time.Now()
			for _, b := range blobs {
				if _, err := encoding.DecodeBlock(b, col.Typ, false); err != nil {
					return nil, nil, err
				}
			}
			dec = append(dec, float64(time.Since(start).Nanoseconds()))
		}
		n := float64(len(rows))
		perCol[col.Name] = map[string]float64{
			"encode_ns_per_value": median(enc) / n,
			"decode_ns_per_value": median(dec) / n,
			"bytes_per_value":     float64(blobBytes) / n,
		}
		encNs += median(enc)
		decNs += median(dec)
		bytes += float64(blobBytes)
		values += n
	}
	return perCol, map[string]float64{
		"encoding.encode_ns_per_value": encNs / values,
		"encoding.decode_ns_per_value": decNs / values,
		"encoding.bytes_per_value":     bytes / values,
	}, nil
}
