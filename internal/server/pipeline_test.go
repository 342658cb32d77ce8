package server

import (
	"context"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"pcpda/internal/client"
	"pcpda/internal/nemesis"
	"pcpda/internal/rtm"
	"pcpda/internal/wire"
)

func mustDialPipe(t *testing.T, addr string) *client.PipeConn {
	t.Helper()
	p, err := client.DialPipelined(addr, 5*time.Second, 32)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPipelinedTxnBurst: whole transactions as single flushed bursts —
// the steady state of the pipelined protocol — including the speculation
// contract: a failure early in the burst turns the rest into CodeState
// fallout and the session survives to run the next burst.
func TestPipelinedTxnBurst(t *testing.T) {
	set := testSet(t)
	mgr, _ := rtm.New(set)
	addr, srv := startServer(t, mgr, Config{})
	p := mustDialPipe(t, addr)
	defer func() { _ = p.Close() }()
	if !p.Pipelined() {
		t.Fatal("a window-32 connection must pipeline")
	}
	x, y := item(t, set, "x"), item(t, set, "y")

	// Committed burst: BEGIN+WRITE+WRITE+COMMIT in one flush.
	err := p.RunTxn("updater", 0, []wire.Message{
		&wire.Write{Item: x, Value: 41}, &wire.Write{Item: y, Value: 43},
	})
	if err != nil {
		t.Fatalf("pipelined updater: %v", err)
	}
	if v := mgr.ReadCommitted(0); v != 41 {
		t.Fatalf("committed x = %v, want 41", v)
	}

	// BEGIN fails: the steps and COMMIT behind it draw CodeState fallout,
	// which RunTxn discards; the burst's outcome is the BEGIN failure.
	err = p.RunTxn("nope", 0, []wire.Message{&wire.Write{Item: x, Value: 1}})
	if !wire.IsCode(err, wire.CodeProtocol) {
		t.Fatalf("burst with unknown template: %v, want CodeProtocol", err)
	}

	// A step fails mid-burst (undeclared write under "reader"): that step
	// decides the outcome, the trailing COMMIT is fallout.
	err = p.RunTxn("reader", 0, []wire.Message{
		&wire.Read{Item: x}, &wire.Write{Item: x, Value: 9},
	})
	if !wire.IsCode(err, wire.CodeProtocol) {
		t.Fatalf("burst with undeclared write: %v, want CodeProtocol", err)
	}

	// The session survived both failed bursts.
	if err := p.RunTxn("reader", 0, []wire.Message{&wire.Read{Item: x}}); err != nil {
		t.Fatalf("burst after failed bursts: %v", err)
	}
	if got := srv.Counters().SessionsClosed.Load(); got != 0 {
		t.Fatalf("SessionsClosed = %d, want 0: failed bursts must not end the session", got)
	}
	if mgr.ReadCommitted(0) != 41 {
		t.Fatal("failed bursts must not have committed anything")
	}
}

// TestPipelinedPingOutOfOrder: a tagged PING is answered by the read loop
// while the exec goroutine is stuck — a pipelined BEGIN parked in
// admission must not make the session unresponsive.
func TestPipelinedPingOutOfOrder(t *testing.T) {
	mgr, _ := rtm.New(testSet(t))
	addr, srv := startServer(t, mgr, Config{})

	holder := mustDial(t, addr)
	defer func() { _ = holder.Close() }()
	if _, err := holder.Begin("zonly"); err != nil {
		t.Fatal(err)
	}

	p := mustDialPipe(t, addr)
	defer func() { _ = p.Close() }()
	begin, err := p.Submit(&wire.Begin{Name: "zonly"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pipelined BEGIN to park", func() bool { return mgr.ParkedWaiters() > 0 })

	// The BEGIN is parked; its reply cannot have been written. A PING must
	// still round-trip, out of order.
	if err := p.Ping(7); err != nil {
		t.Fatalf("ping behind a parked BEGIN: %v", err)
	}
	if mgr.ParkedWaiters() == 0 {
		t.Fatal("BEGIN resolved before the ping — the test raced itself")
	}

	if err := holder.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := begin.Wait(); err != nil {
		t.Fatalf("parked BEGIN after release: %v", err)
	}
	_ = p.Close() // live txn unwinds via disconnect auto-abort
	waitFor(t, "auto-abort", func() bool { return srv.Counters().AutoAborted.Load() == 1 })
	waitFor(t, "manager quiescent", func() bool { return mgr.Stats().Live == 0 })
	// The inflight high-water mark is folded in when the reader exits; the
	// session had BEGIN and PING in flight together.
	waitFor(t, "inflight HWM", func() bool { return srv.Counters().InflightHWM.Load() >= 2 })
}

// TestOldFramingRefusedLoudly: a client speaking a retired framing — the
// untagged v1/v2 header or the tagged v3 one — gets one tag-0 V4
// CodeProtocol ERR naming the version, then EOF; it is never left waiting
// on a reply. The server keeps serving V4 clients afterwards.
func TestOldFramingRefusedLoudly(t *testing.T) {
	set := testSet(t)
	mgr, _ := rtm.New(set)
	addr, srv := startServer(t, mgr, Config{})

	for _, hello := range [][]byte{
		{2, byte(wire.KindHello), 0, 0, 0, 0},             // untagged v2
		{1, byte(wire.KindHello), 0, 0, 0, 0},             // untagged v1
		{3, byte(wire.KindHello), 0, 0, 0, 1, 0, 0, 0, 0}, // tagged v3
	} {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := nc.Write(hello); err != nil {
			t.Fatal(err)
		}
		// ReadAny decodes only V4 frames, so a clean read is a V4 reply.
		m, tag, _, err := wire.ReadAny(nc, nil)
		if err != nil {
			t.Fatalf("v%d HELLO: read refusal: %v", hello[0], err)
		}
		e, isErr := m.(*wire.ErrMsg)
		if !isErr || e.Code != wire.CodeProtocol || tag != 0 {
			t.Fatalf("v%d HELLO: reply %v (tag %d), want a tag-0 V4 CodeProtocol ERR", hello[0], m, tag)
		}
		if !strings.Contains(e.Text, "version") {
			t.Fatalf("v%d HELLO: refusal %q does not name the version", hello[0], e.Text)
		}
		if _, _, _, err := wire.ReadAny(nc, nil); err != io.EOF {
			t.Fatalf("v%d HELLO: after the refusal: %v, want EOF", hello[0], err)
		}
		_ = nc.Close()
	}
	waitFor(t, "refused sessions torn down", func() bool { return srv.Counters().SessionsClosed.Load() >= 3 })

	p := mustDialPipe(t, addr)
	defer func() { _ = p.Close() }()
	if err := p.RunTxn("updater", 0, []wire.Message{
		&wire.Write{Item: item(t, set, "x"), Value: 5}, &wire.Write{Item: item(t, set, "y"), Value: 6},
	}); err != nil {
		t.Fatalf("V4 client after the refusals: %v", err)
	}
}

// TestPipelinedDisconnectEveryPhase tears a pipelined session down at each
// phase of a burst's life — BEGIN parked in admission (the tagged request
// unwinds through the claim protocol), transaction live, burst flushed but
// replies unread, burst fully done — and requires a quiescent, clean
// manager after every one.
func TestPipelinedDisconnectEveryPhase(t *testing.T) {
	set := testSet(t)
	mgr, _ := rtm.New(set)
	addr, srv := startServer(t, mgr, Config{})
	x, y := item(t, set, "x"), item(t, set, "y")
	burst := []wire.Message{&wire.Write{Item: x, Value: 1}, &wire.Write{Item: y, Value: 2}}

	phases := []struct {
		name string
		run  func(t *testing.T, p *client.PipeConn)
	}{
		{"begin-parked", func(t *testing.T, p *client.PipeConn) {
			// zonly's slot is held, so the tagged BEGIN parks in admission;
			// closing abandons the claim and the dispatcher aborts the orphan.
			holder := mustDial(t, addr)
			if _, err := holder.Begin("zonly"); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Submit(&wire.Begin{Name: "zonly"}); err != nil {
				t.Fatal(err)
			}
			if err := p.Flush(); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "BEGIN to park", func() bool { return mgr.ParkedWaiters() > 0 })
			_ = p.Close()
			if err := holder.Abort(); err != nil {
				t.Fatal(err)
			}
			_ = holder.Close()
		}},
		{"txn-live", func(t *testing.T, p *client.PipeConn) {
			f, err := p.Submit(&wire.Begin{Name: "updater"})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Flush(); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Wait(); err != nil {
				t.Fatal(err)
			}
			_ = p.Close() // live transaction: disconnect auto-abort
		}},
		{"burst-inflight", func(t *testing.T, p *client.PipeConn) {
			// Flush a whole burst and vanish without reading any reply: the
			// server may be at any point of executing it.
			if _, err := p.Submit(&wire.Begin{Name: "updater"}); err != nil {
				t.Fatal(err)
			}
			for _, m := range burst {
				if _, err := p.Submit(m); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := p.Submit(&wire.Commit{}); err != nil {
				t.Fatal(err)
			}
			if err := p.Flush(); err != nil {
				t.Fatal(err)
			}
			_ = p.Close()
		}},
		{"burst-done", func(t *testing.T, p *client.PipeConn) {
			if err := p.RunTxn("updater", 0, burst); err != nil {
				t.Fatal(err)
			}
			_ = p.Close()
		}},
	}
	for _, ph := range phases {
		t.Run(ph.name, func(t *testing.T) {
			ph.run(t, mustDialPipe(t, addr))
			waitFor(t, "admission pipeline to empty", func() bool { return srv.pending.Load() == 0 })
			waitFor(t, "manager quiescent", func() bool { return mgr.Stats().Live == 0 })
			if err := mgr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShardStealing: with two admission shards, backlog queued behind one
// busy dispatcher is stolen by the idle sibling. Sessions are assigned to
// shards round-robin in dial order, which the test exploits to aim BEGINs
// at shard 0 only.
func TestShardStealing(t *testing.T) {
	mgr, _ := rtm.New(testSet(t))
	addr, srv := startServer(t, mgr, Config{
		QueueDepth: 32, AdmitShards: 2, MaxAdmitting: 1, BatchMax: 2,
	})
	if len(srv.shards) != 2 {
		t.Fatalf("shards = %d, want 2", len(srv.shards))
	}
	var conns []strictConn
	defer func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}()
	dial := func() strictConn {
		c := mustDial(t, addr)
		conns = append(conns, c)
		return c
	}
	evenDial := func() strictConn { // lands on shard 0 (round-robin)
		c := dial()
		dial() // burn the shard-1 slot
		return c
	}

	// Shard 0, session 1: take zonly's template slot.
	holder := evenDial()
	if _, err := holder.Begin("zonly"); err != nil {
		t.Fatal(err)
	}
	// Shard 0, session 2: BEGIN parks in BeginBatch holding the single
	// MaxAdmitting slot — dispatcher 0's next pop will block on it.
	bg := func(c strictConn) {
		go func() { _, _ = c.Begin("zonly") }()
	}
	bg(evenDial())
	waitFor(t, "admission group to park", func() bool { return mgr.ParkedWaiters() > 0 })
	// Shard 0, session 3: popped by dispatcher 0, which then blocks on the
	// admission semaphore with shard 0's queue drained.
	bg(evenDial())
	waitFor(t, "dispatcher 0 to block", func() bool {
		return srv.pending.Load() == 2 && srv.queueDepth() == 0
	})
	// Shard 0, sessions 4 and 5: queue up behind the blocked dispatcher.
	// The second enqueue sees backlog and nudges the steal wake; dispatcher
	// 1 (idle, empty queue) steals from shard 0.
	bg(evenDial())
	bg(evenDial())
	waitFor(t, "idle sibling to steal the backlog", func() bool {
		return srv.Counters().StolenAdmissions.Load() >= 1
	})
	st := srv.ShardStats()
	if st[0].Stolen+st[1].Stolen != srv.Counters().StolenAdmissions.Load() {
		t.Fatalf("per-shard stolen %v does not sum to the counter", st)
	}

	// Unwind: free the template slot, then retire every conn (the deferred
	// closes); abandoned claims and auto-aborts drain the pipeline and the
	// startServer cleanup audits the drain.
	if err := holder.Abort(); err != nil {
		t.Fatal(err)
	}
	for _, c := range conns {
		_ = c.Close()
	}
	conns = nil
	waitFor(t, "admission pipeline to empty", func() bool { return srv.pending.Load() == 0 })
	waitFor(t, "manager quiescent", func() bool { return mgr.Stats().Live == 0 })
}

// TestNemesisPipelined is the pipelined arm of the nemesis determinism
// coverage: a seeded fault plan (resets and one-way partitions) against
// pipelined sessions. Severed sessions must unwind their tagged in-flight
// requests through the claim protocol and disconnect teardown, and the
// drain audit must stay clean.
func TestNemesisPipelined(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	mgr, _ := rtm.New(testSet(t))
	addr, srv := startServer(t, mgr, Config{
		QueueDepth: 128, WatchdogInterval: 10 * time.Millisecond,
		WatchdogGrace: 200 * time.Millisecond,
	})
	prox, err := nemesis.New(nemesis.Config{
		Listen: "127.0.0.1:0", Target: addr, Seed: 77,
		Faults: nemesis.Faults{
			Latency: time.Millisecond, Jitter: time.Millisecond,
			PReset: 0.25, PPartition: 0.25,
			FaultAfterMin: 1024, FaultAfterMax: 16384,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = prox.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	rep, err := client.RunLoad(ctx, client.LoadConfig{
		Addr: prox.Addr().String(), Conns: 32, Seed: 13, Pipelined: true,
		ArrivalRate: 1200, Duration: 3 * time.Second,
		DeadlineBudget: 250 * time.Millisecond,
		OpTimeout:      2 * time.Second, MaxAttempts: 3,
	})
	if err != nil {
		t.Fatalf("pipelined nemesis load: %v (report %+v)", err, rep)
	}
	st := prox.Stats()
	t.Logf("pipelined nemesis: offered=%d committed=%d failed=%d | proxy conns=%d resets=%d partitions=%d",
		rep.Offered, rep.Committed, rep.Failed, st.Conns, st.Resets, st.Partitions)
	if rep.Committed == 0 {
		t.Fatalf("nothing committed through the proxy: %+v", rep)
	}
	if st.Resets+st.Partitions == 0 {
		t.Fatalf("proxy injected no faults across %d conns — the soak tested nothing", st.Conns)
	}
	waitFor(t, "sessions idle", func() bool { return !srv.liveWork() })
	if err := mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
