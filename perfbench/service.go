package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pcpda/internal/client"
	"pcpda/internal/wire"
)

// Service workload parameters. They are constants on purpose: a parent
// commit and a change must be measured at the same load.
const (
	// setupLaunches is how many times a run launches pcpdad to take the
	// median set-up time; only the last launch serves the load.
	setupLaunches = 9
	// warmup runs the workload before the measured phase so connections,
	// buffers and the daemon's heap reach their steady state.
	warmup = time.Second

	// closedWindow is client.DialPipelined's default request window, and
	// closedDepth the transactions each connection keeps in flight with
	// it — a quarter of the window, as client.RunLoad's pipelined worker.
	closedWindow = 32
	closedDepth  = closedWindow / 4

	// readMostlyFrac is read90-closed's share of declared read-only
	// transactions.
	readMostlyFrac = 0.9
	// readMostlyBudget is the firm deadline every read90-closed update
	// carries in BEGIN, and the latency limit every read90-closed
	// transaction is judged against.
	readMostlyBudget = 10 * time.Millisecond
)

// txnSpec is one generated transaction.
type txnSpec struct {
	tmpl  int            // template index into the schema; -1 = read-only
	steps []wire.Message // update: the READ/WRITE frames between BEGIN and COMMIT
	items []uint32       // read-only: the snapshot read set
}

// generator draws a workload's transactions from its seed: a template
// uniformly at random with random write values, or with probability
// readFrac a read-only transaction over 1–4 items of the schema's item
// space (as client.RunLoad's read mix).
type generator struct {
	rng      *rand.Rand
	schema   *wire.HelloOK
	items    []uint32
	readFrac float64
}

func newGenerator(schema *wire.HelloOK, seed, stream int64, readFrac float64) *generator {
	return &generator{
		rng:      rand.New(rand.NewSource(seed*7919 + stream)),
		schema:   schema,
		items:    schemaItems(schema),
		readFrac: readFrac,
	}
}

func (g *generator) next() txnSpec {
	if g.readFrac > 0 && g.rng.Float64() < g.readFrac {
		n := 1 + g.rng.Intn(min(4, len(g.items)))
		items := make([]uint32, n)
		for i := range items {
			items[i] = g.items[g.rng.Intn(len(g.items))]
		}
		return txnSpec{tmpl: -1, items: items}
	}
	ti := g.rng.Intn(len(g.schema.Templates))
	var steps []wire.Message
	for _, st := range g.schema.Templates[ti].Steps {
		switch st.Op {
		case wire.OpRead:
			steps = append(steps, &wire.Read{Item: st.Item})
		case wire.OpWrite:
			steps = append(steps, &wire.Write{Item: st.Item, Value: g.rng.Int63n(1 << 30)})
		}
	}
	return txnSpec{tmpl: ti, steps: steps}
}

// schemaItems is the sorted set of items the schema's templates touch.
func schemaItems(schema *wire.HelloOK) []uint32 {
	seen := make(map[uint32]bool)
	var items []uint32
	for _, t := range schema.Templates {
		for _, st := range t.Steps {
			if st.Op != wire.OpCompute && !seen[st.Item] {
				seen[st.Item] = true
				items = append(items, st.Item)
			}
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	return items
}

// service describes one pcpdad workload.
type service struct {
	readFrac float64       // share of read-only transactions
	budget   time.Duration // updates' firm deadline and every transaction's latency limit; 0 = none
}

// generators returns the workload's transaction streams for seed, one per
// connection.
func (s service) generators(schema *wire.HelloOK, seed int64) []*generator {
	gens := make([]*generator, nproc)
	for i := range gens {
		gens[i] = newGenerator(schema, seed, int64(i), s.readFrac)
	}
	return gens
}

// windowWidth is the span of one measurement window. Each figure is taken
// per window and the run reports the median over its windows, so a burst
// of interference from other tenants of the host moves a few windows, not
// the run's figure.
const windowWidth = 500 * time.Millisecond

// window holds the outcomes of the transactions submitted within one
// windowWidth of a phase.
type window struct {
	offered, commits, onTime int64
	lat                      latencies // submit → outcome
}

// phase is the client-side record of one load phase.
type phase struct {
	start     time.Time
	elapsed   time.Duration
	clientCPU time.Duration // this process, user + system
	daemon    []procSample  // pcpdad's /proc counters at each window boundary

	win    []window
	submit latencies // SubmitTxn / SubmitReadTxn call time (traced phases)

	offered   int64                    // transactions submitted
	failed    int64                    // typed failures and refusals on the last attempt
	failures  map[wire.ErrorCode]int64 // failed, by error code
	firstFail string                   // the first failure's text
	retried   int64                    // attempts that ended in a retryable refusal and were retried
	retries   map[wire.ErrorCode]int64 // retried, by error code
	onTime    int64                    // committed within the latency limit (every commit when there is none)
	updates   int64                    // update attempts submitted, retries included
	refused   int64                    // update attempts refused before the manager began them
	upCommits int64                    // update commits
	roCommits int64                    // read-only commits
}

// newPhase starts the record of a phase of length dur.
func newPhase(start time.Time, dur time.Duration) *phase {
	return &phase{start: start, win: make([]window, max(1, int(dur/windowWidth)))}
}

func (p *phase) committed() int64 { return p.upCommits + p.roCommits }

func (p *phase) merge(o *phase) {
	for i := range p.win {
		p.win[i].offered += o.win[i].offered
		p.win[i].commits += o.win[i].commits
		p.win[i].onTime += o.win[i].onTime
		p.win[i].lat = append(p.win[i].lat, o.win[i].lat...)
	}
	p.submit = append(p.submit, o.submit...)
	p.offered += o.offered
	p.failed += o.failed
	for code, n := range o.failures {
		p.noteFailure(code, n, o.firstFail)
	}
	p.retried += o.retried
	for code, n := range o.retries {
		p.noteRetry(code, n)
	}
	p.onTime += o.onTime
	p.updates += o.updates
	p.refused += o.refused
	p.upCommits += o.upCommits
	p.roCommits += o.roCommits
}

// maxAttempts bounds the tries of one transaction, as client.PipeClient's
// default retry policy: a typed refusal the protocol marks retryable
// (wire.ErrorCode.Retryable — an evicted snapshot, a sacrifice abort,
// a watchdog deadline abort, an admission refusal) is submitted again, up
// to this many attempts in all, before it counts as failed.
const maxAttempts = 8

// settle records the outcome of attempt number tries (from 1) of a
// transaction first submitted at from, and reports whether the caller
// should submit it again. A typed reply from the server is an outcome of
// the workload; anything else means the connection failed, which fails
// the run.
func (p *phase) settle(err error, ro bool, from time.Time, limit time.Duration, tries int) (bool, error) {
	if err != nil {
		var re *wire.RemoteError
		if !errors.As(err, &re) {
			return false, err
		}
		if !ro && refusedAtBegin(re.Code) {
			p.refused++
		}
		if re.Code.Retryable() && tries < maxAttempts {
			p.noteRetry(re.Code, 1)
			p.retried++
			return true, nil
		}
	}
	took := time.Since(from)
	w := &p.win[max(0, min(len(p.win)-1, int(from.Sub(p.start)/windowWidth)))]
	w.offered++
	if err != nil {
		var re *wire.RemoteError
		errors.As(err, &re)
		p.failed++
		p.noteFailure(re.Code, 1, err.Error())
		return false, nil
	}
	if ro {
		p.roCommits++
	} else {
		p.upCommits++
	}
	w.commits++
	w.lat.add(took)
	if limit == 0 || took <= limit {
		p.onTime++
		w.onTime++
	}
	return false, nil
}

// noteFailure adds n failures with code to the phase's tally.
func (p *phase) noteFailure(code wire.ErrorCode, n int64, text string) {
	if p.failures == nil {
		p.failures = make(map[wire.ErrorCode]int64)
	}
	p.failures[code] += n
	if p.firstFail == "" {
		p.firstFail = text
	}
}

// noteRetry adds n retried attempts with code to the phase's tally.
func (p *phase) noteRetry(code wire.ErrorCode, n int64) {
	if p.retries == nil {
		p.retries = make(map[wire.ErrorCode]int64)
	}
	p.retries[code] += n
}

// windowed is the phase's end-to-end figures, each the median over its
// windows: throughput, median and tail latency, daemon CPU per commit
// and on-time ratio; with the tail percentile and sample count of a
// typical window.
func (p *phase) windowed() (tput, p50, tailV, cpuUs, ok float64, tailP float64, n int) {
	var rates, p50s, tails, cpus, oks, tailPs, ns []float64
	for i, w := range p.win {
		rates = append(rates, float64(w.commits)/windowWidth.Seconds())
		wp50, wtp, wtv, wn := w.lat.summary()
		p50s = append(p50s, wp50)
		tails = append(tails, wtv)
		tailPs = append(tailPs, wtp)
		ns = append(ns, float64(wn))
		oks = append(oks, ratio(float64(w.onTime), float64(w.offered)))
		if i+1 < len(p.daemon) {
			cpus = append(cpus, ratio(float64((p.daemon[i+1].cpu-p.daemon[i].cpu)/time.Microsecond), float64(w.commits)))
		}
	}
	return median(rates), median(p50s), median(tails), median(cpus), median(oks), median(tailPs), int(median(ns))
}

// memCommits is the work after which a service run reads the daemon's
// peak resident set. The daemon keeps its whole history, so its memory
// grows with every commit and steps with each garbage-collection cycle;
// read at a fixed count, it compares the same work on every run instead
// of however many commits the run's share of the host allowed.
const memCommits = 100000

// hwmAt returns the daemon's peak resident set once the phase had
// committed n transactions, interpolated between the samples around that
// point, or the last sample when the phase committed fewer.
func (p *phase) hwmAt(n int64) float64 {
	var done int64
	for i, w := range p.win {
		if i+1 >= len(p.daemon) {
			break
		}
		if done+w.commits >= n {
			a, b := p.daemon[i].hwmMB, p.daemon[i+1].hwmMB
			return a + (b-a)*float64(n-done)/float64(w.commits)
		}
		done += w.commits
	}
	return p.daemon[len(p.daemon)-1].hwmMB
}

// refusedAtBegin reports whether code is an admission refusal, after which
// the manager never began the transaction.
func refusedAtBegin(code wire.ErrorCode) bool {
	return code == wire.CodeOverload || code == wire.CodeShed || code == wire.CodeInfeasible
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// closedPhase runs the closed loop for dur: each connection keeps
// closedDepth whole-transaction bursts in flight and submits the next one
// when its oldest resolves. Updates carry budget as their firm deadline.
func closedPhase(conns []*client.PipeConn, gens []*generator, budget, dur time.Duration, traced bool) (*phase, error) {
	var stop atomic.Bool
	per := make([]*phase, len(conns))
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	cpu0, start := selfCPU(), time.Now()
	for i := range conns {
		per[i] = newPhase(start, dur)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = closedConn(conns[i], gens[i], per[i], &stop, budget, traced)
		}(i)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	total := newPhase(start, dur)
	total.elapsed, total.clientCPU = time.Since(start), selfCPU()-cpu0
	for _, p := range per {
		total.merge(p)
	}
	return total, errors.Join(errs...)
}

func closedConn(pc *client.PipeConn, g *generator, p *phase, stop *atomic.Bool, budget time.Duration, traced bool) error {
	type inflight struct {
		fut   *client.TxnFuture
		start time.Time // first attempt's submit time
		t     txnSpec
		tries int
	}
	queue := make([]inflight, 0, 2*closedDepth)
	submit := func(t txnSpec, start time.Time, tries int) error {
		begun := time.Now()
		var fut *client.TxnFuture
		var err error
		if t.tmpl < 0 {
			fut, err = pc.SubmitReadTxn(t.items)
		} else {
			fut, err = pc.SubmitTxn(g.schema.Templates[t.tmpl].Name, budget, t.steps)
			p.updates++
		}
		if traced {
			p.submit.add(time.Since(begun))
		}
		if err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		queue = append(queue, inflight{fut: fut, start: start, t: t, tries: tries})
		return nil
	}
	// settleOldest waits for the oldest transaction in flight and records
	// its outcome, or submits it again behind the others if it was refused
	// in a way the protocol marks retryable.
	settleOldest := func() error {
		f := queue[0]
		queue = queue[1:]
		again, err := p.settle(f.fut.Wait(), f.t.tmpl < 0, f.start, budget, f.tries)
		if err != nil || !again {
			return err
		}
		return submit(f.t, f.start, f.tries+1)
	}
	for !stop.Load() {
		if err := submit(g.next(), time.Now(), 1); err != nil {
			return err
		}
		p.offered++
		// A loop, not an if: a retried transaction takes its place in the
		// queue again, and the depth must not grow by it.
		for len(queue) >= closedDepth {
			if err := settleOldest(); err != nil {
				return err
			}
		}
	}
	for len(queue) > 0 {
		if err := settleOldest(); err != nil {
			return err
		}
	}
	return nil
}

// serviceRun is the record of one run against pcpdad.
type serviceRun struct {
	setupS   float64
	plain    *phase // untraced measured phase
	traced   *phase // traced run only
	before   statsDoc
	after    statsDoc
	procA    procSample
	procB    procSample
	exit     exitReport
	schema   *wire.HelloOK
	measured *phase // the phase the daemon counters bracket
}

// runPhases drives setup, warm-up and the measured phase(s) against a
// fresh daemon, then drains it and checks the drain audit and the
// manager's counters against what the client saw.
func (s service) runPhases(r *run) (*serviceRun, error) {
	launches := setupLaunches
	if r.trace {
		launches = 1
	}
	d, setupS, err := serviceSetup(r, launches)
	if err != nil {
		return nil, err
	}
	defer d.kill() // no-op after a clean stop
	conns, err := dialAll(d.addr, nproc, closedWindow)
	if err != nil {
		return nil, err
	}
	defer closeAll(conns)

	sr := &serviceRun{setupS: setupS, schema: conns[0].Schema()}
	gens := s.generators(sr.schema, r.seed)
	runPhase := func(dur time.Duration, traced bool) (*phase, error) {
		sample, err := d.procEvery(windowWidth)
		if err != nil {
			return nil, err
		}
		p, err := closedPhase(conns, gens, s.budget, dur, traced)
		marks, procErr := sample()
		if err = errors.Join(err, procErr); err != nil {
			return nil, err
		}
		p.daemon = marks
		return p, nil
	}
	measured := time.Duration(r.seconds * float64(time.Second))
	if _, err = runPhase(warmup, false); err != nil {
		return nil, err
	}
	if r.trace {
		// Half untraced, half traced: the ratio of their throughputs is the
		// tracing overhead; the daemon counters bracket the traced half.
		if sr.plain, err = runPhase(measured/2, false); err != nil {
			return nil, err
		}
	}
	if sr.before, sr.procA, err = d.sample(); err != nil {
		return nil, err
	}
	if r.trace {
		sr.traced, err = runPhase(measured/2, true)
		sr.measured = sr.traced
	} else {
		sr.plain, err = runPhase(measured, false)
		sr.measured = sr.plain
	}
	if err != nil {
		return nil, err
	}
	if sr.after, sr.procB, err = d.sample(); err != nil {
		return nil, err
	}
	closeAll(conns)
	if sr.exit, err = d.stop(); err != nil {
		return nil, err
	}
	r.check(sr.exit.code == 0, "pcpdad drain audit failed (exit %d): %s", sr.exit.code, d.logTail())

	m, before, after := sr.measured, sr.before.Manager, sr.after.Manager
	r.check(int64(after.Begins-before.Begins) == m.updates-m.refused,
		"manager began %d transactions, client issued %d updates (%d refused at admission)",
		after.Begins-before.Begins, m.updates, m.refused)
	r.check(int64(after.Commits-before.Commits) == m.upCommits,
		"manager committed %d updates, client saw %d", after.Commits-before.Commits, m.upCommits)
	r.check(after.ROCommits-before.ROCommits == m.roCommits,
		"manager committed %d read-only transactions, client saw %d", after.ROCommits-before.ROCommits, m.roCommits)
	return sr, nil
}

func runUpdateClosed(r *run) (*result, error) { return service{}.run(r) }

func runRead90Closed(r *run) (*result, error) {
	return service{readFrac: readMostlyFrac, budget: readMostlyBudget}.run(r)
}

func (s service) run(r *run) (*result, error) {
	sr, err := s.runPhases(r)
	if err != nil {
		return nil, err
	}
	m := sr.measured
	res := &result{Attempted: max(1, m.offered), Failed: m.failed}
	if r.trace {
		vals, err := s.layers(r, sr)
		if err != nil {
			return nil, err
		}
		res.Metrics = layerMetrics(vals)
		return res, nil
	}
	tput, p50, tailV, cpuUs, ok, tailP, n := m.windowed()
	note("%d transactions offered, %d committed, %d on time, %d failed over %.2fs in %d windows",
		m.offered, m.committed(), m.onTime, m.failed, m.elapsed.Seconds(), len(m.win))
	if m.retried > 0 {
		note("%d attempts retried, by code: %v", m.retried, m.retries)
	}
	if m.failed > 0 {
		note("failures by code: %v; first: %s", m.failures, m.firstFail)
	}
	note("window medians: latency p50 %.3fms, tail p%.4g %.3fms of ~%d samples a window",
		p50, tailP, tailV, n)
	note("drain %.3fs, peak RSS %.1fMB at exit", sr.exit.wall.Seconds(), sr.exit.peakMB)
	res.Metrics = endToEnd{
		setupS: sr.setupS, throughput: tput, p50Ms: p50, tailMs: tailV,
		ok: ok, cpuUs: cpuUs, rssMB: m.hwmAt(memCommits),
	}.metrics()
	return res, nil
}

// layers computes the per-layer metrics of a traced service run: client
// and daemon-counter figures over the traced phase, then the replays of
// the workload's transactions through the wire codec and an in-process
// manager.
func (s service) layers(r *run, sr *serviceRun) (map[string]float64, error) {
	m := sr.traced
	committed := float64(m.committed())
	b, a := sr.before, sr.after
	begins := float64(a.Manager.Begins - b.Manager.Begins)
	per1k := func(delta, base float64) float64 { return 1000 * ratio(delta, base) }
	var ewma float64
	for _, sh := range a.Shards {
		ewma += sh.EWMAWaitMs
	}
	sort.Float64s(m.submit)
	vals := map[string]float64{
		"client.submit_us_p50":  1000 * percentile(m.submit, 50),
		"client.cpu_us_per_txn": ratio(float64(m.clientCPU/time.Microsecond), committed),
		"client.retries_per_1k": per1k(float64(m.retried), float64(m.offered)),

		"session.read_syscalls_per_txn":  ratio(float64(sr.procB.syscr-sr.procA.syscr), committed),
		"session.write_syscalls_per_txn": ratio(float64(sr.procB.syscw-sr.procA.syscw), committed),
		"session.responses_per_flush": ratio(float64(a.Server.ResponsesFlushed-b.Server.ResponsesFlushed),
			float64(a.Server.ResponseFlushes-b.Server.ResponseFlushes)),
		"session.bytes_in_per_txn":  ratio(float64(a.Server.BytesIn-b.Server.BytesIn), committed),
		"session.bytes_out_per_txn": ratio(float64(a.Server.BytesOut-b.Server.BytesOut), committed),

		"admission.ewma_wait_ms":      ratio(ewma, float64(len(a.Shards))),
		"admission.stolen_per_1k":     per1k(float64(a.Server.StolenAdmissions-b.Server.StolenAdmissions), float64(m.offered)),
		"admission.shed_per_1k":       per1k(float64(a.Server.Shed-b.Server.Shed), float64(m.offered)),
		"admission.infeasible_per_1k": per1k(float64(a.Server.RejectedInfeasible-b.Server.RejectedInfeasible), float64(m.offered)),
		"rtm.lock_waits_per_1k":       per1k(float64(a.Manager.LockWaits-b.Manager.LockWaits), begins),
		"rtm.commit_waits_per_1k":     per1k(float64(a.Manager.CommitWaits-b.Manager.CommitWaits), begins),
		"rtm.aborts_per_1k":           per1k(float64(aborts(a)-aborts(b)), begins),
		"rtm.commit_ratio":            ratio(float64(a.Manager.Commits-b.Manager.Commits), begins),
		"rtm.clock_ticks_per_txn":     ratio(float64(a.Manager.Clock-b.Manager.Clock), committed),
		"lock.ops_per_txn":            ratio(float64(a.Manager.LockTableOps-b.Manager.LockTableOps), committed),
		"db.ro_evictions_per_1k":      per1k(float64(a.Manager.ROEvictions-b.Manager.ROEvictions), float64(a.Manager.ROBegins-b.Manager.ROBegins)),
		"history.drain_s":             sr.exit.wall.Seconds(),
		"trace.overhead_ratio":        ratio(committed/m.elapsed.Seconds(), float64(sr.plain.committed())/sr.plain.elapsed.Seconds()),
	}
	streams := s.replayStreams(sr.schema, r.seed)
	wv, err := replayWire(streams, sr.schema, s.budget)
	if err != nil {
		return nil, err
	}
	mv, err := replayManager(r, streams, sr.schema)
	if err != nil {
		return nil, err
	}
	for _, part := range []map[string]float64{wv, mv} {
		for k, v := range part {
			vals[k] = v
		}
	}
	return vals, nil
}

// aborts counts every way the manager ended a transaction without commit.
func aborts(s statsDoc) int {
	return s.Manager.Aborts + s.Manager.CycleAborts + s.Manager.DeadlineAborts + s.Manager.Cancellations
}
