// Package client speaks the internal/wire protocol to a pcpdad server.
// PipeConn is the one connection type: tagged requests, a demux goroutine
// matching replies back to callers, and a request window bounding what is
// in flight — a window of 1 is strict request/reply. PipeClient wraps one
// PipeConn with seeded-jitter retries that turn the server's typed
// backpressure (CodeOverload, CodeShed, CodeInfeasible) and optimistic
// failures (CodeAborted, CodeDeadline) into bounded retry loops, and
// RunLoad drives whole workloads through PipeClients.
package client

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pcpda/internal/wire"
)

// beginMsg builds a BEGIN frame carrying budget as a firm deadline in
// milliseconds. budget <= 0 means no deadline; sub-millisecond budgets
// round up to 1ms rather than silently dropping the deadline.
func beginMsg(name string, budget time.Duration) *wire.Begin {
	m := &wire.Begin{Name: name}
	if budget > 0 {
		ms := (budget + time.Millisecond - 1) / time.Millisecond
		if ms > math.MaxUint32 {
			ms = math.MaxUint32
		}
		m.Deadline = uint32(ms)
	}
	return m
}

// RetryBudget is a token bucket bounding the global ratio of retries to
// first attempts across every PipeClient sharing it. Each call earns a
// fraction of a token; each retry spends a whole one. Under normal
// operation the bucket stays near full and retries are free; under
// sustained overload the spend rate caps at the earn rate, so the retry
// traffic a saturated server sees is at most EarnPerCall of the offered
// load — the classic defense against retry storms turning an overload
// into a metastable failure.
type RetryBudget struct {
	mu         sync.Mutex
	tokens     float64
	burst      float64
	earn       float64
	suppressed int64
}

// NewRetryBudget builds a budget earning earnPerCall tokens per first
// attempt (default 0.2) with the given burst capacity (default 20). The
// bucket starts full so short bursts of failures retry freely.
func NewRetryBudget(earnPerCall, burst float64) *RetryBudget {
	if earnPerCall <= 0 {
		earnPerCall = 0.2
	}
	if burst < 1 {
		burst = 20
	}
	return &RetryBudget{tokens: burst, burst: burst, earn: earnPerCall}
}

func (b *RetryBudget) credit() {
	b.mu.Lock()
	b.tokens = min(b.burst, b.tokens+b.earn)
	b.mu.Unlock()
}

// take spends one token if available; a refusal is counted as a
// suppressed retry.
func (b *RetryBudget) take() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	b.suppressed++
	return false
}

// Suppressed returns how many retries the budget has refused.
func (b *RetryBudget) Suppressed() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.suppressed
}

// retryPolicy is PipeClient's retry skeleton: seeded full-jitter
// exponential backoff on the protocol's retryable error codes, optionally
// capped by a RetryBudget.
type retryPolicy struct {
	// MaxAttempts bounds tries per DoTxn/DoReadTxn call (default 8).
	MaxAttempts int
	// BackoffBase is the first retry's sleep ceiling; it doubles per
	// attempt (full jitter, default 1ms).
	BackoffBase time.Duration
	// Retries, when set, is incremented once per retry attempt.
	Retries *atomic.Int64
	// Budget, when set, globally caps retries: a retry the budget refuses
	// ends the call with the last error instead of sleeping and trying
	// again. Share one budget across all clients of a workload.
	Budget *RetryBudget
	// CodeHook, when set, observes every typed server error an attempt
	// returns (including ones that are then retried) — load generators use
	// it to count sheds and infeasible rejections that retries would otherwise
	// absorb.
	CodeHook func(wire.ErrorCode)

	mu  sync.Mutex
	rng *rand.Rand
}

// run drives attempt under the policy: retryable typed failures back off
// and try again (budget permitting); anything else ends the call.
func (rp *retryPolicy) run(name string, attempt func() error) error {
	if rp.Budget != nil {
		rp.Budget.credit()
	}
	return rp.resume(name, 0, nil, attempt)
}

// resume continues run's chain after its first tried attempts, the last
// of which failed with last: for a caller that made the first attempt
// itself (a pipelined burst) and earned the budget credit for it.
func (rp *retryPolicy) resume(name string, tried int, last error, attempt func() error) error {
	attempts := rp.MaxAttempts
	if attempts <= 0 {
		attempts = 1
	}
	for a := tried; a < attempts; a++ {
		if a > 0 {
			if rp.Budget != nil && !rp.Budget.take() {
				return fmt.Errorf("client: %s: retry budget exhausted: %w", name, last)
			}
			if rp.Retries != nil {
				rp.Retries.Add(1)
			}
			rp.sleepBackoff(a)
		}
		err := attempt()
		if err == nil {
			return nil
		}
		last = err
		var remote *wire.RemoteError
		if errors.As(err, &remote) {
			if rp.CodeHook != nil {
				rp.CodeHook(remote.Code)
			}
			if remote.Code.Retryable() {
				continue
			}
		}
		return err
	}
	return fmt.Errorf("client: %s: attempts exhausted: %w", name, last)
}

func (rp *retryPolicy) sleepBackoff(attempt int) {
	base := rp.BackoffBase
	if base <= 0 {
		base = time.Millisecond
	}
	ceil := base << uint(attempt-1)
	if limit := 100 * time.Millisecond; ceil > limit {
		ceil = limit
	}
	rp.mu.Lock()
	d := time.Duration(rp.rng.Int63n(int64(ceil) + 1))
	rp.mu.Unlock()
	time.Sleep(d)
}
