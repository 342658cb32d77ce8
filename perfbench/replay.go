package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"pcpda/internal/db"
	"pcpda/internal/rt"
	"pcpda/internal/rtm"
	"pcpda/internal/txn"
	"pcpda/internal/wire"
	"pcpda/internal/workload"
)

// replayTxns is how many of the workload's transactions the traced run
// replays through the wire codec and an in-process manager: a fixed count,
// so the replay does the same work on every commit.
const replayTxns = 20000

// replayStreams regenerates the first replayTxns transactions the
// workload's load issues, split across nproc streams the way the load
// splits them across connections.
func (s service) replayStreams(schema *wire.HelloOK, seed int64) [][]txnSpec {
	gens := s.generators(schema, seed)
	streams := make([][]txnSpec, nproc)
	for k := 0; k < replayTxns; k++ {
		c := k % nproc
		streams[c] = append(streams[c], gens[c].next())
	}
	return streams
}

// frames renders one transaction as the request frames a PipeConn sends
// and the reply frames the server answers with when it commits.
func frames(t txnSpec, schema *wire.HelloOK, budget time.Duration, id uint64) []wire.Message {
	var reqs []wire.Message
	if t.tmpl < 0 {
		reqs = append(reqs, &wire.Begin{ReadOnly: true})
		for _, it := range t.items {
			reqs = append(reqs, &wire.Read{Item: it})
		}
	} else {
		reqs = append(reqs, &wire.Begin{Name: schema.Templates[t.tmpl].Name,
			Deadline: uint32(budget / time.Millisecond)})
		reqs = append(reqs, t.steps...)
	}
	reqs = append(reqs, &wire.Commit{})
	all := reqs
	for _, m := range reqs {
		switch m := m.(type) {
		case *wire.Begin:
			all = append(all, &wire.BeginOK{ID: id})
		case *wire.Read:
			all = append(all, &wire.ReadOK{Value: int64(m.Item) << 20})
		case *wire.Write:
			all = append(all, &wire.WriteOK{})
		case *wire.Commit:
			all = append(all, &wire.CommitOK{})
		}
	}
	return all
}

// replayWire encodes every frame of the replayed transactions — requests
// and replies, tagged at wire v4 as the pipelined client and server frame
// them — and decodes them back, reporting frames, bytes and codec time
// per transaction. The timed passes are repeated and the median kept.
func replayWire(streams [][]txnSpec, schema *wire.HelloOK, budget time.Duration) (map[string]float64, error) {
	var msgs []wire.Message
	var txns int
	for _, st := range streams {
		for i, t := range st {
			msgs = append(msgs, frames(t, schema, budget, uint64(i))...)
			txns++
		}
	}
	encode := func(buf []byte) ([]byte, error) {
		for i, m := range msgs {
			var err error
			if buf, err = wire.AppendTagged(buf, wire.V4, uint32(i), m); err != nil {
				return nil, fmt.Errorf("encode %s: %w", m.Kind(), err)
			}
		}
		return buf, nil
	}
	buf, err := encode(nil)
	if err != nil {
		return nil, err
	}
	var encNs, decNs []float64
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		if buf, err = encode(buf[:0]); err != nil {
			return nil, err
		}
		encNs = append(encNs, float64(time.Since(start)))

		start = time.Now()
		for rest := buf; len(rest) > 0; {
			if _, _, _, rest, err = wire.DecodeAny(rest); err != nil {
				return nil, fmt.Errorf("decode: %w", err)
			}
		}
		decNs = append(decNs, float64(time.Since(start)))
	}
	n := float64(txns)
	return map[string]float64{
		"wire.frames_per_txn":    float64(len(msgs)) / n,
		"wire.bytes_per_txn":     float64(len(buf)) / n,
		"wire.encode_ns_per_txn": median(encNs) / n,
		"wire.decode_ns_per_txn": median(decNs) / n,
	}, nil
}

// pcpdadConfig is the transaction set pcpdad generates with its default
// flags (-n 8 -items 12 -util 0.5 -write-prob 0.5 -seed 1). The replay
// checks it against the daemon's schema, so a change to those defaults
// fails the run instead of replaying a different set.
var pcpdadConfig = workload.Config{
	N: 8, Items: 12, Utilization: 0.5,
	PeriodMin: 40, PeriodMax: 400,
	OpsMin: 2, OpsMax: 4, WriteProb: 0.5, Seed: 1,
}

// sameSchema reports how set differs from the schema a daemon sent.
func sameSchema(set *txn.Set, schema *wire.HelloOK) error {
	if len(set.Templates) != len(schema.Templates) {
		return fmt.Errorf("%d templates, daemon has %d", len(set.Templates), len(schema.Templates))
	}
	for i, tmpl := range set.Templates {
		ti := schema.Templates[i]
		if tmpl.Name != ti.Name || int32(tmpl.Priority) != ti.Priority || len(tmpl.Steps) != len(ti.Steps) {
			return fmt.Errorf("template %d is %s/%d/%d steps, daemon has %s/%d/%d steps",
				i, tmpl.Name, tmpl.Priority, len(tmpl.Steps), ti.Name, ti.Priority, len(ti.Steps))
		}
		for j, st := range tmpl.Steps {
			op, item := wire.OpCompute, wire.NoItem
			switch st.Kind {
			case txn.ReadStep:
				op, item = wire.OpRead, uint32(st.Item)
			case txn.WriteStep:
				op, item = wire.OpWrite, uint32(st.Item)
			}
			if ti.Steps[j].Op != op || ti.Steps[j].Item != item {
				return fmt.Errorf("template %s step %d differs", tmpl.Name, j)
			}
		}
	}
	return nil
}

// spans sums the time spent in each manager call of one replay stream.
type spans struct {
	begin, read, write, commit    time.Duration
	roBegin, roRead               time.Duration
	nBegin, nRead, nWrite         int64
	nROBegin, nRORead, nROEvicted int64
}

// replayManager replays the workload's transactions against an in-process
// rtm.Manager over pcpdad's transaction set, one goroutine per stream,
// timing every Begin/Read/Write/Commit and BeginReadOnly/Read call, then
// times the manager's full invariant audit over the replay's history.
func replayManager(r *run, streams [][]txnSpec, schema *wire.HelloOK) (map[string]float64, error) {
	set, err := workload.Generate(pcpdadConfig)
	if err != nil {
		return nil, err
	}
	if err := sameSchema(set, schema); err != nil {
		r.check(false, "replay set is not pcpdad's: %v", err)
		return nil, nil
	}
	mgr, err := rtm.NewWithOptions(set, rtm.Options{Seed: pcpdadConfig.Seed})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	per := make([]spans, len(streams))
	errs := make([]error, len(streams))
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = replayStream(ctx, mgr, schema, streams[i], &per[i])
		}(i)
	}
	wg.Wait()
	runtime.ReadMemStats(&ms1)
	if err := errors.Join(errs...); err != nil {
		r.check(false, "manager replay: %v", err)
		return nil, nil
	}
	start := time.Now()
	auditErr := mgr.CheckInvariants()
	checkMs := float64(time.Since(start)) / float64(time.Millisecond)
	r.check(auditErr == nil, "replay history audit: %v", auditErr)

	var tot spans
	var updates int64
	for _, sp := range per {
		tot.begin += sp.begin
		tot.read += sp.read
		tot.write += sp.write
		tot.commit += sp.commit
		tot.roBegin += sp.roBegin
		tot.roRead += sp.roRead
		tot.nBegin += sp.nBegin
		tot.nRead += sp.nRead
		tot.nWrite += sp.nWrite
		tot.nROBegin += sp.nROBegin
		tot.nRORead += sp.nRORead
		tot.nROEvicted += sp.nROEvicted
	}
	updates = tot.nBegin
	st := mgr.Stats()
	r.check(int64(st.Commits) == updates, "replay committed %d of %d updates", st.Commits, updates)
	r.check(st.ROCommits == tot.nROBegin-tot.nROEvicted, "replay committed %d of %d read-only transactions",
		st.ROCommits, tot.nROBegin-tot.nROEvicted)
	us := func(d time.Duration, n int64) float64 { return ratio(float64(d)/float64(time.Microsecond), float64(n)) }
	return map[string]float64{
		"rtm.begin_us":       us(tot.begin, tot.nBegin),
		"rtm.read_us":        us(tot.read, tot.nRead),
		"rtm.write_us":       us(tot.write, tot.nWrite),
		"rtm.commit_us":      us(tot.commit, tot.nBegin),
		"rtm.allocs_per_txn": float64(ms1.Mallocs-ms0.Mallocs) / float64(tot.nBegin+tot.nROBegin),
		"db.ro_begin_us":     us(tot.roBegin, tot.nROBegin),
		"db.ro_read_us":      us(tot.roRead, tot.nRORead),
		"history.check_ms":   checkMs,
	}, nil
}

// replayStream runs one stream's transactions back to back. A snapshot
// read refused because its version was truncated is the retryable outcome
// the service would report; the replay counts it and moves on.
func replayStream(ctx context.Context, mgr *rtm.Manager, schema *wire.HelloOK, st []txnSpec, sp *spans) error {
	for _, t := range st {
		if t.tmpl < 0 {
			start := time.Now()
			ro, err := mgr.BeginReadOnly(ctx)
			sp.roBegin += time.Since(start)
			sp.nROBegin++
			if err != nil {
				return fmt.Errorf("begin read-only: %w", err)
			}
			evicted := false
			for _, it := range t.items {
				start = time.Now()
				_, err := ro.Read(ctx, rt.Item(it))
				sp.roRead += time.Since(start)
				sp.nRORead++
				if errors.Is(err, db.ErrSnapshotEvicted) {
					evicted = true
					break
				}
				if err != nil {
					return fmt.Errorf("snapshot read %d: %w", it, err)
				}
			}
			if evicted {
				sp.nROEvicted++
				ro.Abort()
				continue
			}
			if err := ro.Commit(ctx); err != nil {
				return fmt.Errorf("commit read-only: %w", err)
			}
			continue
		}
		name := schema.Templates[t.tmpl].Name
		start := time.Now()
		tx, err := mgr.Begin(ctx, name)
		sp.begin += time.Since(start)
		sp.nBegin++
		if err != nil {
			return fmt.Errorf("begin %s: %w", name, err)
		}
		for _, m := range t.steps {
			switch m := m.(type) {
			case *wire.Read:
				start = time.Now()
				_, err = tx.Read(ctx, rt.Item(m.Item))
				sp.read += time.Since(start)
				sp.nRead++
			case *wire.Write:
				start = time.Now()
				err = tx.Write(ctx, rt.Item(m.Item), db.Value(m.Value))
				sp.write += time.Since(start)
				sp.nWrite++
			}
			if err != nil {
				tx.Abort()
				return fmt.Errorf("%s %s: %w", name, m.Kind(), err)
			}
		}
		start = time.Now()
		err = tx.Commit(ctx)
		sp.commit += time.Since(start)
		if err != nil {
			return fmt.Errorf("commit %s: %w", name, err)
		}
	}
	return nil
}
