package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/types"
)

// The serve workload: dashboard traffic of short statements in an open
// loop. Arrivals follow a fixed schedule spread over the connections;
// latency is timed from each request's intended send time.
const (
	serveRows = 400_000
	// serveRegion is the key range Zipf ranks: about one 4096-row storage
	// block in each of the three local segments, so every region costs the
	// block cache the same and the hit ratio depends on the skew alone, not
	// on which regions a seed makes hot.
	serveRegion   = 12_500
	serveRange    = 1024 // keys a range aggregate covers
	serveAgents   = 512  // distinct agent strings
	serveZipfS    = 1.1
	serveZipfV    = 3
	serveBaseRate = 500.0 // statements/s for the latency figures
	serveP99Limit = 50 * time.Millisecond
	serveStream   = 60_000 // statements generated per run
)

// serveLadder is the fixed rate ladder (statements/s) max_qps climbs:
// 1000/s up by a fifth per rung to about 22,000/s, four times the highest
// knee seen on a 2-CPU host, so the ladder's top does not cap the figure.
var serveLadder = func() []float64 {
	var rates []float64
	for r := 1000.0; r < 23_000; r *= 1.2 {
		rates = append(rates, math.Round(r))
	}
	return rates
}()

// serveLadderStep is the share of --seconds each rung runs for.
const serveLadderStep = 0.05

// serveBaseChunks is how many parts the base-rate phase is cut into, with a
// host probe between them.
const serveBaseChunks = 4

// Capacity (the gated throughput) is measured in serveCapacityUnits metered
// units, each a closed loop on every connection for a fixed number of
// statements: serveCapacityPerS per second of --seconds, about 0.7 s of
// work per unit on a 2-CPU host at --seconds 8.
const (
	serveCapacityUnits = 5
	serveCapacityPerS  = 300
)

const (
	pointSQL = `SELECT cust, amount, qty, agent FROM sv WHERE id = %d`
	rangeSQL = `SELECT COUNT(*), SUM(qty), MAX(cust) FROM sv WHERE id >= %d AND id < %d`
)

// serveFixture is the generated table, kept as the oracle.
type serveFixture struct {
	cust, cents, qty []int32
	agent            []uint16
	agents           []string
	qtyPrefix        []int64
	setup            storageLog
}

var serveSchema = types.NewSchema(
	types.Column{Name: "id", Typ: types.Int64},
	types.Column{Name: "cust", Typ: types.Int64},
	types.Column{Name: "amount", Typ: types.Float64},
	types.Column{Name: "qty", Typ: types.Int64},
	types.Column{Name: "agent", Typ: types.Varchar},
)

func bytesRead(cs []*server.Client) int64 {
	var n int64
	for _, c := range cs {
		n += c.BytesRead()
	}
	return n
}

func serveSchemaRow(fx *serveFixture, id int) types.Row {
	return types.Row{types.NewInt(int64(id)), types.NewInt(int64(fx.cust[id])),
		types.NewFloat(float64(fx.cents[id]) / 100), types.NewInt(int64(fx.qty[id])),
		types.NewString(fx.agents[fx.agent[id]])}
}

func genServe(seed int64) *serveFixture {
	rng := rand.New(rand.NewSource(seed*104729 + 3))
	fx := &serveFixture{
		cust: make([]int32, serveRows), cents: make([]int32, serveRows), qty: make([]int32, serveRows),
		agent: make([]uint16, serveRows), qtyPrefix: make([]int64, serveRows+1),
	}
	const letters = "abcdefghijklmnopqrstuvwxyz0123456789/.;() "
	for i := 0; i < serveAgents; i++ {
		b := make([]byte, 160+rng.Intn(80))
		for j := range b {
			b[j] = letters[rng.Intn(len(letters))]
		}
		fx.agents = append(fx.agents, "Mozilla/5.0 ("+string(b)+")")
	}
	for i := 0; i < serveRows; i++ {
		fx.cust[i] = int32(rng.Intn(100_000))
		fx.cents[i] = int32(rng.Intn(1_000_000))
		fx.qty[i] = int32(1 + rng.Intn(20))
		fx.agent[i] = uint16(rng.Intn(serveAgents))
		fx.qtyPrefix[i+1] = fx.qtyPrefix[i] + int64(fx.qty[i])
	}
	return fx
}

func buildServe(seed int64, t *tracer) func(dir string) (*engine, *serveFixture, error) {
	return func(dir string) (*engine, *serveFixture, error) {
		e, err := openEngine(dir)
		if err != nil {
			return nil, nil, err
		}
		if err := e.execAll(
			`CREATE TABLE sv (id INT, cust INT, amount FLOAT, qty INT, agent VARCHAR)`,
			`CREATE PROJECTION sv_super ON sv (id, cust, amount, qty, agent) ORDER BY id SEGMENTED BY HASH(id)`,
		); err != nil {
			return nil, nil, err
		}
		fx := genServe(seed)
		const chunk = 100_000
		for lo := 0; lo < serveRows; lo += chunk {
			rows := make([]types.Row, min(chunk, serveRows-lo))
			for i := range rows {
				rows[i] = serveSchemaRow(fx, lo+i)
			}
			if err := fx.setup.load(t, e, "sv", rows); err != nil {
				return nil, nil, err
			}
		}
		if err := fx.setup.mover(t, e); err != nil {
			return nil, nil, err
		}
		if err := e.execAll(`ANALYZE_STATISTICS('sv')`); err != nil {
			return nil, nil, err
		}
		return e, fx, nil
	}
}

// serveStmt is one generated request: the text sent, the equivalent plain
// SELECT (for PROFILE and direct parsing) and what the oracle needs.
type serveStmt struct {
	text, plain string
	point       bool
	key         int // point id, or range start
}

// genStream draws the run's statements: 60% point lookups and 40% range
// aggregates over Zipf-skewed key regions (a seeded permutation decides
// which regions are hot), 30% of each sent through EXECUTE.
func genStream(seed int64) []serveStmt {
	rng := rand.New(rand.NewSource(seed*15485863 + 11))
	regions := serveRows / serveRegion
	perm := rng.Perm(regions)
	zipf := rand.NewZipf(rng, serveZipfS, serveZipfV, uint64(regions-1))
	out := make([]serveStmt, serveStream)
	for i := range out {
		region := perm[zipf.Uint64()]
		s := serveStmt{point: rng.Float64() < 0.6}
		prepared := rng.Float64() < 0.3
		if s.point {
			s.key = region*serveRegion + rng.Intn(serveRegion)
			s.plain = fmt.Sprintf(pointSQL, s.key)
			s.text = s.plain
			if prepared {
				s.text = fmt.Sprintf(`EXECUTE pt(%d)`, s.key)
			}
		} else {
			s.key = region*serveRegion + rng.Intn(serveRegion-serveRange)
			s.plain = fmt.Sprintf(rangeSQL, s.key, s.key+serveRange)
			s.text = s.plain
			if prepared {
				s.text = fmt.Sprintf(`EXECUTE ag(%d, %d)`, s.key, s.key+serveRange)
			}
		}
		out[i] = s
	}
	return out
}

var servePrepare = []string{
	`PREPARE pt AS SELECT cust, amount, qty, agent FROM sv WHERE id = $1`,
	`PREPARE ag AS SELECT COUNT(*), SUM(qty), MAX(cust) FROM sv WHERE id >= $1 AND id < $2`,
}

// check compares one reply with the generator.
func (fx *serveFixture) check(s serveStmt, res *server.Result) error {
	if s.point {
		id := s.key
		if len(res.Rows) != 1 || len(res.Rows[0]) != 4 {
			return wrong("point %d: %v", id, res.Rows)
		}
		r := res.Rows[0]
		if parseI(r[0]) != int64(fx.cust[id]) || parseF(r[1]) != float64(fx.cents[id])/100 ||
			parseI(r[2]) != int64(fx.qty[id]) || r[3] != fx.agents[fx.agent[id]] {
			return wrong("point %d: %v", id, r)
		}
		return nil
	}
	lo, hi := s.key, s.key+serveRange
	var maxCust int32
	for i := lo; i < hi; i++ {
		maxCust = max(maxCust, fx.cust[i])
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 3 || parseI(res.Rows[0][0]) != int64(hi-lo) ||
		parseI(res.Rows[0][1]) != fx.qtyPrefix[hi]-fx.qtyPrefix[lo] || parseI(res.Rows[0][2]) != int64(maxCust) {
		return wrong("range [%d,%d): %v", lo, hi, res.Rows)
	}
	return nil
}

// sample is one request of an open-loop phase.
type sample struct {
	lat  time.Duration // from intended send time to reply
	late time.Duration // send time minus when it was both due and a connection was free
	err  bool
	done time.Time
}

// loadgen sends the statement stream on the connections.
type loadgen struct {
	fx     *serveFixture
	stream []serveStmt
	cs     []*server.Client
	next   int // stream position
	out    *outcome
}

// openLoop offers rate statements/s for dur: request i is due at
// start + i/rate and goes to whichever connection is free first.
func (g *loadgen) openLoop(t *tracer, rate float64, dur time.Duration) ([]sample, time.Time, error) {
	n := int(rate * dur.Seconds())
	samples := make([]sample, n)
	base := g.next
	g.next += n
	var (
		idx      atomic.Int64
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	start := time.Now().Add(time.Millisecond)
	for _, c := range g.cs {
		wg.Add(1)
		go func(c *server.Client) {
			defer wg.Done()
			for {
				i := int(idx.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				free := time.Now()
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				if free.Before(due) {
					free = due
				}
				s := g.stream[(base+i)%len(g.stream)]
				res, _, err := t.exec(c, s.text)
				done := time.Now()
				samples[i] = sample{lat: done.Sub(due), late: sent.Sub(free), err: err != nil, done: done}
				if err == nil {
					err = g.fx.check(s, res)
				} else {
					err = nil // a failed statement is counted, not fatal
				}
				if err != nil {
					errMu.Lock()
					firstErr = err
					errMu.Unlock()
					idx.Store(int64(n)) // stop both senders
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, s := range samples {
		g.out.Attempted++
		if s.err {
			g.out.Failed++
		}
	}
	return samples, start, firstErr
}

// closedLoop keeps every connection busy, each sending its next statement
// as soon as the last one returns, until dur has passed or, if count > 0,
// count statements have been sent. It returns how many succeeded.
func (g *loadgen) closedLoop(t *tracer, dur time.Duration, count int) (int64, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		idx      atomic.Int64
		failed   atomic.Int64
		stop     atomic.Bool
	)
	base := g.next
	deadline := time.Now().Add(dur)
	for _, c := range g.cs {
		wg.Add(1)
		go func(c *server.Client) {
			defer wg.Done()
			for !stop.Load() && time.Now().Before(deadline) {
				i := int(idx.Add(1) - 1)
				if count > 0 && i >= count {
					return
				}
				s := g.stream[(base+i)%len(g.stream)]
				res, _, err := t.exec(c, s.text)
				if err != nil {
					failed.Add(1)
					continue
				}
				if err := g.fx.check(s, res); err != nil {
					mu.Lock()
					firstErr = err
					mu.Unlock()
					stop.Store(true)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	n := int(idx.Load())
	if count > 0 {
		n = min(n, count)
	}
	g.next = base + n
	g.out.Attempted += int64(n)
	g.out.Failed += failed.Load()
	return int64(n) - failed.Load(), firstErr
}

// latencies returns the latencies in ms; a failed request counts as
// missing every limit (+Inf).
func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.lat)
		if s.err {
			out[i] = math.Inf(1)
		}
	}
	return out
}

func lateness(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.late)
	}
	return out
}

// ladderStep is one rung's verdict.
type ladderStep struct {
	Rate  float64 `json:"rate"`
	P99ms float64 `json:"p99_ms"`
	Pace  float64 `json:"pace"` // share completed by the step's end plus the limit
	Pass  bool    `json:"pass"`
}

// climb runs the ladder until a rung fails. max_qps interpolates between
// the last passing rung and the first failing one on log p99, so a knee
// between rungs reads as a rate between them. If even the top rung passes,
// max_qps is the top rung's rate, and the steps show it.
func (g *loadgen) climb(t *tracer, step time.Duration, baseP99 float64) (float64, []ladderStep, error) {
	limit := ms(serveP99Limit)
	prev := ladderStep{Rate: serveBaseRate, P99ms: baseP99, Pass: baseP99 <= limit}
	var steps []ladderStep
	for _, rate := range serveLadder {
		ss, start, err := g.openLoop(t, rate, step)
		if err != nil {
			return 0, steps, err
		}
		p99, _ := tailQuantile(latencies(ss))
		end := start.Add(step + serveP99Limit)
		var done int
		for _, s := range ss {
			if !s.err && !s.done.After(end) {
				done++
			}
		}
		cur := ladderStep{Rate: rate, P99ms: p99, Pace: float64(done) / float64(len(ss))}
		cur.Pass = p99 <= limit && cur.Pace >= 0.95
		steps = append(steps, cur)
		if !cur.Pass {
			if !prev.Pass {
				// Not even the base rate met the limit: scale it down by the
				// overshoot rather than report 0.
				return serveBaseRate * limit / prev.P99ms, steps, nil
			}
			frac := 0.0
			if cur.P99ms > limit && prev.P99ms > 0 {
				frac = math.Log(limit/prev.P99ms) / math.Log(cur.P99ms/prev.P99ms)
			}
			return prev.Rate + (rate-prev.Rate)*math.Max(0, math.Min(1, frac)), steps, nil
		}
		prev = cur
		time.Sleep(100 * time.Millisecond) // let any backlog drain
	}
	return prev.Rate, steps, nil
}

func runServe(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	setupTrace := newTracer(cfg.Trace, nil)
	e, fx, setups, err := setupFixture(cfg.WorkDir, buildServe(cfg.Seed, setupTrace))
	if err != nil {
		return nil, err
	}
	defer e.close()
	cs, err := dialAll(e, connections())
	if err != nil {
		return nil, err
	}
	defer closeAll(cs)
	for _, c := range cs {
		for _, p := range servePrepare {
			if _, err := c.Exec(p); err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
		}
	}
	g := &loadgen{fx: fx, stream: genStream(cfg.Seed), cs: cs, out: out}
	plain := newTracer(false, e.db)
	total := time.Duration(cfg.Seconds * float64(time.Second))
	if _, err := g.closedLoop(plain, total*10/100, 0); err != nil {
		return nil, err
	}
	before := readCounters()
	gc := startGC()
	baseDur := total * 40 / 100
	if cfg.Trace {
		baseDur = total * 45 / 100
	}
	// The base rate runs as serveBaseChunks metered units, so each chunk's
	// latencies are scaled by the host probes around it.
	clock := startPhase()
	m := newMeter(out)
	var base []sample
	var scaledLat []float64
	for i := 0; i < serveBaseChunks; i++ {
		var chunk []sample
		err := m.unit(func() (err error) {
			chunk, _, err = g.openLoop(plain, serveBaseRate, baseDur/serveBaseChunks)
			return err
		})
		if err != nil {
			return nil, err
		}
		for _, l := range latencies(chunk) {
			scaledLat = append(scaledLat, m.factor(i)*l)
		}
		base = append(base, chunk...)
	}
	_, _, baseSteal := clock.stop()
	out.Workload["base_cpu_us_per_stmt"] = 1e6 * m.cpuS / float64(len(base))
	out.Notes["base_steal_frac"] = baseSteal
	lat := latencies(base)
	p99, q := tailQuantile(lat)
	late99, _ := tailQuantile(lateness(base))
	out.E2E["setup_s"] = median(setups.Scaled)
	out.E2E["latency_ms"] = median(scaledLat)
	out.Workload["p50_ms"] = median(lat)
	out.E2E["disk_bytes_per_row"] = float64(e.rosBytes()) / serveRows
	out.Workload["p90_ms"] = quantile(lat, 0.9)
	out.Workload["p95_ms"] = quantile(lat, 0.95)
	out.Workload["p99_ms"] = p99
	out.Workload["loadgen.late_p99_ms"] = late99
	out.Notes["setup_s_each"] = setups
	out.Workload["setup_raw_s"] = median(setups.Raw)
	out.Notes["p99_quantile"] = q
	out.Notes["base_samples"] = len(base)
	out.Notes["base_rate"] = serveBaseRate
	out.Notes["ladder"] = serveLadder
	out.Notes["p99_limit_ms"] = ms(serveP99Limit)
	out.Notes["zipf"] = map[string]float64{"s": serveZipfS, "v": serveZipfV}
	out.Counts["data_hash"] = dataHash(fx.cust, fx.cents, fx.qty, fx.agent, g.stream[0].key, g.stream[1].key)
	out.Counts["ros_bytes"] = e.rosBytes()
	out.Counts["mover_cycles"] = int64(len(fx.setup.moverMs))
	out.Counts["mover_rows"] = fx.setup.moverRows

	defer m.record(out)
	if !cfg.Trace {
		// One unmetered unit first: the closed loop at full rate settles
		// caches and heap sizes that the 500/s phase leaves short.
		count := max(500, int(serveCapacityPerS*cfg.Seconds))
		if _, err := g.closedLoop(plain, time.Hour, count); err != nil {
			return nil, err
		}
		var capacity, scaledCapacity []float64
		for i := 0; i < serveCapacityUnits; i++ {
			var ok int64
			err := m.unit(func() (err error) {
				ok, err = g.closedLoop(plain, time.Hour, count)
				return err
			})
			if err != nil {
				return nil, err
			}
			u := serveBaseChunks + i
			capacity = append(capacity, float64(ok)/m.walls[u])
			scaledCapacity = append(scaledCapacity, capacity[i]/m.factor(u))
		}
		out.E2E["throughput"] = median(scaledCapacity)
		out.Workload["capacity_per_s"] = median(capacity)
		step := time.Duration(serveLadderStep * float64(total))
		maxQPS, steps, err := g.climb(plain, step, p99)
		if err != nil {
			return nil, err
		}
		d := readCounters().since(before)
		out.Workload["block_cache_hit_ratio"] = ratio(d.blockHits, d.blockHits+d.blockMisses)
		out.Workload["max_qps"] = maxQPS
		out.Notes["ladder_steps"] = steps
		out.Notes["ladder_top_passed"] = steps[len(steps)-1].Pass
		out.Notes["ladder_step_s"] = step.Seconds()
	} else {
		traced := newTracer(true, e.db)
		defer traced.finish()
		bytes0 := bytesRead(cs)
		mallocs0 := mallocs()
		tbase, _, err := g.openLoop(traced, serveBaseRate, baseDur)
		if err != nil {
			return nil, err
		}
		out.Counts["allocs_per_stmt"] = int64((mallocs() - mallocs0) / uint64(len(tbase)))
		tlat := latencies(tbase)
		tlate99, _ := tailQuantile(lateness(tbase))
		var plainTexts []string
		for _, s := range g.stream[:50] {
			plainTexts = append(plainTexts, s.plain)
		}
		sample := make([]types.Row, encodingSampleRows)
		for i := range sample {
			sample[i] = serveSchemaRow(fx, i)
		}
		in := layerInputs{
			t: traced, delta: readCounters().since(before), gc: gc, client: cs[0],
			// Every statement returns one row.
			bytesPerRow: float64(bytesRead(cs)-bytes0) / float64(len(tbase)),
			storage:     fx.setup, statements: plainTexts, catalog: e.db.Catalog(),
			overhead:  median(tlat)/median(lat) - 1,
			encSchema: serveSchema, encRows: sample,
		}
		if err := in.compute(out); err != nil {
			return nil, err
		}
		out.Layers["loadgen.late_p99_ms"] = tlate99
		out.Workload["traced_p50_ms"] = median(tlat)
		if err := dumpSpans(cfg, "serve", setupTrace, traced); err != nil {
			return nil, err
		}
	}
	return out, nil
}
