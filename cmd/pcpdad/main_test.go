package main

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// daemonEnv makes the test binary run the daemon instead of the tests.
const daemonEnv = "PCPDAD_TEST_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) == "1" {
		os.Args = append([]string{"pcpdad"}, strings.Fields(os.Getenv(daemonEnv+"_ARGS"))...)
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// TestSIGTERMAsSoonAsServing re-runs this binary as the daemon and sends
// SIGTERM at the earliest moment a client could see it serving: the
// listener is bound and the "serving" line is being written. To hold the
// daemon at exactly that point, its stderr is a pipe the test has filled,
// so the write of the "serving" line blocks until the test drains it. The
// signal must start a drain — exit code 0 and "drain clean" — rather than
// kill the daemon before its audit runs.
func TestSIGTERMAsSoonAsServing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	filler := fillPipe(t, w)

	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), daemonEnv+"=1",
		daemonEnv+"_ARGS=-listen "+addr+" -drain-timeout 5s")
	cmd.Stderr = w
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	_ = w.Close()
	out := make(chan []byte, 1)
	stop := func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}

	// The listener is bound once a connect succeeds; the daemon is then
	// at, or blocked in, the write of its "serving" line.
	deadline := time.Now().Add(30 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			_ = c.Close()
			break
		}
		if time.Now().After(deadline) {
			stop()
			t.Fatalf("daemon never listened on %s: %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		stop()
		t.Fatal(err)
	}
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	var waitErr error
	select {
	case waitErr = <-done:
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatal("daemon did not exit within 30s of SIGTERM")
	}
	log := bytes.TrimPrefix(<-out, filler)
	if waitErr != nil {
		var ee *exec.ExitError
		if errors.As(waitErr, &ee) {
			t.Fatalf("daemon exit: %v (want code 0)\n%s", ee.ProcessState, log)
		}
		t.Fatal(waitErr)
	}
	for _, want := range []string{"pcpdad: serving set", "drain clean"} {
		if !bytes.Contains(log, []byte(want)) {
			t.Fatalf("daemon log lacks %q:\n%s", want, log)
		}
	}
}

// fillPipe writes into w until the pipe buffer is full — whole pages
// first, then single bytes, so no room is left for even a short line —
// and returns what it wrote.
func fillPipe(t *testing.T, w *os.File) []byte {
	t.Helper()
	var filled []byte
	for _, chunk := range []int{4096, 1} {
		buf := bytes.Repeat([]byte{'.'}, chunk)
		for {
			if err := w.SetWriteDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
				t.Fatalf("pipe deadline: %v", err)
			}
			n, err := w.Write(buf)
			filled = append(filled, buf[:n]...)
			if err != nil {
				if !errors.Is(err, os.ErrDeadlineExceeded) {
					t.Fatalf("fill pipe: %v", err)
				}
				break
			}
		}
	}
	return filled
}
