package main

import (
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"

	"pcpda/internal/wire"
)

// TestDeclarationMatchesBenchmarkJSON keeps the metric names and units the
// driver emits identical to the ones BENCHMARK.json declares.
func TestDeclarationMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got [][2]string, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: driver emits %d metrics, BENCHMARK.json declares %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i][0] != want[i].Name || got[i][1] != want[i].Unit {
				t.Errorf("%s %d: driver emits %s (%s), BENCHMARK.json declares %s (%s)",
					kind, i, got[i][0], got[i][1], want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEndUnits, decl.EndToEnd)
	same("per_layer", perLayer, decl.PerLayer)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, driver runs %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, driver %s", i, w.Name, workloads[i].name)
		}
	}
}

func TestHwmAtInterpolatesAtFixedWork(t *testing.T) {
	p := &phase{
		win:    []window{{commits: 100}, {commits: 100}, {commits: 100}},
		daemon: []procSample{{hwmMB: 10}, {hwmMB: 20}, {hwmMB: 40}, {hwmMB: 50}},
	}
	for _, c := range []struct {
		n    int64
		want float64
	}{{50, 15}, {100, 20}, {150, 30}, {300, 50}, {1000, 50}} {
		if got := p.hwmAt(c.n); got != c.want {
			t.Errorf("hwmAt(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestSettleRetriesRetryableRefusals checks that a retryable refusal is
// retried until the attempt budget is spent, counting each retry and each
// admission refusal, and only then counts as one failed transaction.
func TestSettleRetriesRetryableRefusals(t *testing.T) {
	start := time.Now()
	p := newPhase(start, time.Second)
	evicted := &wire.RemoteError{Code: wire.CodeAborted, Text: "snapshot evicted"}
	for tries := 1; tries < maxAttempts; tries++ {
		again, err := p.settle(evicted, true, start, 0, tries)
		if err != nil || !again {
			t.Fatalf("attempt %d: settle = %v, %v; want a retry", tries, again, err)
		}
	}
	if again, err := p.settle(evicted, true, start, 0, maxAttempts); err != nil || again {
		t.Fatalf("last attempt: settle = %v, %v; want a failure", again, err)
	}
	if p.retried != maxAttempts-1 || p.failed != 1 || p.win[0].offered != 1 || p.refused != 0 {
		t.Errorf("retried %d failed %d offered %d refused %d; want %d, 1, 1, 0",
			p.retried, p.failed, p.win[0].offered, p.refused, maxAttempts-1)
	}

	shed := &wire.RemoteError{Code: wire.CodeShed, Text: "shed"}
	if again, _ := p.settle(shed, false, start, 0, 1); !again {
		t.Error("shed update: want a retry")
	}
	if again, _ := p.settle(nil, false, start, time.Hour, 2); again {
		t.Error("commit: want no retry")
	}
	if p.refused != 1 || p.upCommits != 1 || p.onTime != 1 || p.win[0].offered != 2 {
		t.Errorf("refused %d commits %d on time %d offered %d; want 1, 1, 1, 2",
			p.refused, p.upCommits, p.onTime, p.win[0].offered)
	}

	protocol := &wire.RemoteError{Code: wire.CodeProtocol, Text: "bad step"}
	if again, err := p.settle(protocol, false, start, 0, 1); err != nil || again || p.failed != 2 {
		t.Errorf("non-retryable refusal: settle = %v, %v, failed %d; want no retry, failed 2", again, err, p.failed)
	}
	if _, err := p.settle(errors.New("connection reset"), false, start, 0, 1); err == nil {
		t.Error("untyped error: want it returned")
	}
}
