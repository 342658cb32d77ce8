package server

import (
	"context"
	"net"
	"testing"
	"time"

	"pcpda/internal/client"
	"pcpda/internal/rtm"
	"pcpda/internal/wire"
)

// TestReadOnlyEndToEnd drives a declared read-only transaction over the
// wire: BEGIN(read-only) bypasses admission, the reads answer from the
// version chains, and the whole phase moves neither the manager clock nor
// the lock table.
func TestReadOnlyEndToEnd(t *testing.T) {
	set := testSet(t)
	mgr, _ := rtm.New(set)
	addr, srv := startServer(t, mgr, Config{})
	xi := item(t, set, "x")
	yi := item(t, set, "y")

	pc := mustDialPipe(t, addr)
	defer func() { _ = pc.Close() }()
	if err := pc.RunTxn("updater", 0, []wire.Message{
		&wire.Write{Item: xi, Value: 7},
		&wire.Write{Item: yi, Value: 8},
	}); err != nil {
		t.Fatal(err)
	}

	// The zero-traffic bracket: update-path counters must not move from
	// here to the end of the read-only phase.
	before := mgr.Stats()
	accepted := srv.Counters().Accepted.Load()

	bp, err := pc.Submit(&wire.Begin{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := pc.Submit(&wire.Read{Item: xi})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := pc.Submit(&wire.Commit{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pc.Flush(); err != nil {
		t.Fatal(err)
	}
	bm, err := bp.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if ok := bm.(*wire.BeginOK); ok.ID&roIDFlag == 0 {
		t.Fatalf("read-only BeginOK id %#x lacks the RO flag bit", ok.ID)
	}
	rm, err := rp.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if v := rm.(*wire.ReadOK).Value; v != 7 {
		t.Fatalf("snapshot read over the wire = %d, want 7", v)
	}
	if _, err := cp.Wait(); err != nil {
		t.Fatal(err)
	}

	// A burst through the high-level helper too.
	for i := 0; i < 10; i++ {
		if err := pc.RunReadTxn([]uint32{xi, yi}); err != nil {
			t.Fatal(err)
		}
	}

	after := mgr.Stats()
	if d := after.Clock - before.Clock; d != 0 {
		t.Errorf("manager clock moved by %d during the read-only phase", d)
	}
	if d := after.LockTableOps - before.LockTableOps; d != 0 {
		t.Errorf("lock table mutated %d times during the read-only phase", d)
	}
	if after.ROCommits-before.ROCommits != 11 {
		t.Errorf("ro commits delta = %d, want 11", after.ROCommits-before.ROCommits)
	}
	if got := srv.Counters().Accepted.Load(); got != accepted {
		t.Errorf("admission accepted %d transactions during the read-only phase", got-accepted)
	}
	if got := srv.Counters().ROAccepted.Load(); got != 11 {
		t.Errorf("ROAccepted = %d, want 11", got)
	}
}

// TestStrictLoadReadMix: a strict (window 1) closed loop runs a read mix
// too — read-only snapshot transactions are ordinary V4 frames, one round
// trip each, and never pass admission.
func TestStrictLoadReadMix(t *testing.T) {
	mgr, _ := rtm.New(testSet(t))
	addr, srv := startServer(t, mgr, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := client.RunLoad(ctx, client.LoadConfig{
		Addr: addr, Conns: 2, Txns: 300, Seed: 5, ReadFrac: 0.5,
	})
	if err != nil {
		t.Fatalf("strict read-mix load: %v (report %+v)", err, rep)
	}
	if rep.Committed < 300 || rep.ROCommitted == 0 || rep.ROCommitted == rep.Committed {
		t.Fatalf("committed %d, read-only %d: want 300 with both kinds", rep.Committed, rep.ROCommitted)
	}
	if got := srv.Counters().ROAccepted.Load(); got < rep.ROCommitted {
		t.Fatalf("ROAccepted = %d < %d read-only commits", got, rep.ROCommitted)
	}
	if got := srv.Counters().Accepted.Load(); got < rep.Committed-rep.ROCommitted {
		t.Fatalf("admission accepted %d < %d update commits", got, rep.Committed-rep.ROCommitted)
	}
}

// TestMaxConnsRefusal: past -max-conns the server refuses at accept time
// with one retryable busy error, and a freed slot admits again.
func TestMaxConnsRefusal(t *testing.T) {
	set := testSet(t)
	mgr, _ := rtm.New(set)
	addr, srv := startServer(t, mgr, Config{MaxConns: 1})

	c1 := mustDial(t, addr)
	waitFor(t, "first session attached", func() bool {
		return srv.Counters().SessionsOpened.Load() >= 1
	})

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	m, tag, _, err := wire.ReadAny(nc, nil)
	if err != nil {
		t.Fatalf("read refusal: %v", err)
	}
	e, isErr := m.(*wire.ErrMsg)
	if !isErr || e.Code != wire.CodeOverload || tag != 0 {
		t.Fatalf("refusal = %v (tag %d), want a tag-0 CodeOverload ErrMsg", m, tag)
	}
	if !e.Code.Retryable() {
		t.Fatal("conn-limit refusal must be retryable")
	}
	_ = nc.Close()
	if got := srv.Counters().RejectedConnLimit.Load(); got != 1 {
		t.Fatalf("RejectedConnLimit = %d, want 1", got)
	}

	// Freeing the slot readmits.
	_ = c1.Close()
	waitFor(t, "slot freed", func() bool {
		c2, err := client.DialPipelined(addr, 2*time.Second, 1)
		if err != nil {
			return false
		}
		_ = c2.Close()
		return true
	})
}
