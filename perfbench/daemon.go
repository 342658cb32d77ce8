package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pcpda/internal/client"
	"pcpda/internal/metrics"
	"pcpda/internal/rtm"
	"pcpda/internal/server"
	"pcpda/internal/wire"
)

// daemon is one running pcpdad child process.
type daemon struct {
	cmd      *exec.Cmd
	addr     string // transaction service
	httpAddr string // /stats and /healthz
	logDone  chan struct{}
	logPath  string
	stopped  bool
}

// readyLine is what pcpdad logs once its listener is bound.
const readyLine = "pcpdad: serving set"

// startDaemon launches pcpdad with its default flags on fresh loopback
// ports and returns once a pipelined HELLO handshake succeeds, with the
// time from launch to that point: the set-up a client waits for before
// its first transaction.
func startDaemon(r *run, logName string) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	httpAddr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{addr: addr, httpAddr: httpAddr, logDone: make(chan struct{}),
		logPath: filepath.Join(r.work, logName)}
	logf, err := os.Create(d.logPath)
	if err != nil {
		return nil, 0, err
	}
	d.cmd = exec.Command(filepath.Join(r.bin, "pcpdad"), "-listen", addr, "-http", httpAddr)
	d.cmd.SysProcAttr = orphanKill
	d.cmd.Stdout = logf
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, 0, err
	}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start pcpdad: %w", err)
	}
	ready := make(chan struct{})
	go func() {
		defer close(d.logDone)
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		seen := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if !seen && strings.Contains(line, readyLine) {
				seen = true
				close(ready)
			}
		}
	}()
	select {
	case <-ready:
	case <-d.logDone:
		_ = d.cmd.Wait()
		return nil, 0, fmt.Errorf("pcpdad exited before serving (log %s)", d.logPath)
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, 0, fmt.Errorf("pcpdad not serving after 30s (log %s)", d.logPath)
	}
	pc, err := client.DialPipelined(addr, 10*time.Second, 0)
	if err != nil {
		d.kill()
		return nil, 0, fmt.Errorf("first handshake: %w", err)
	}
	setup := time.Since(start)
	_ = pc.Close()
	return d, setup, nil
}

// orphanKill makes the kernel kill a child if this process dies first, so
// an interrupted run leaves no daemon behind. (The signal follows the
// thread that started the child; Go keeps that thread unless a goroutine
// exits while locked to it, which this program never does.)
var orphanKill = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}

// freeAddr returns a loopback address with a port the kernel just handed
// out and released.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("pick a port: %w", err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return "", err
	}
	return addr, nil
}

// exitReport is how a child process ended.
type exitReport struct {
	code   int
	wall   time.Duration // from the stop request (or launch) to exit
	cpu    time.Duration // user + system
	peakMB float64       // VmHWM, from the kernel's maxrss
}

// childExit waits for cmd and reports its exit code and resource use.
func childExit(cmd *exec.Cmd, from time.Time) (exitReport, error) {
	err := cmd.Wait()
	rep := exitReport{wall: time.Since(from), code: -1}
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		return rep, err
	}
	ps := cmd.ProcessState
	rep.code = ps.ExitCode()
	rep.cpu = ps.UserTime() + ps.SystemTime()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		rep.peakMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return rep, nil
}

// stop sends SIGTERM — pcpdad drains, audits the manager's history and
// exits 0 only if the audit is clean — and reports the exit.
func (d *daemon) stop() (exitReport, error) {
	d.stopped = true
	start := time.Now()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return exitReport{}, fmt.Errorf("signal pcpdad: %w", err)
	}
	<-d.logDone // the pipe must be drained before Wait
	return childExit(d.cmd, start)
}

// kill ends a daemon that failed to start or is being abandoned.
func (d *daemon) kill() {
	if d.stopped {
		return
	}
	d.stopped = true
	_ = d.cmd.Process.Kill()
	<-d.logDone
	_ = d.cmd.Wait()
}

// logTail returns the last lines of the daemon's log, for failure reports.
func (d *daemon) logTail() string {
	b, err := os.ReadFile(d.logPath)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return strings.Join(lines[max(0, len(lines)-5):], "\n")
}

// statsDoc is pcpdad's /stats document.
type statsDoc struct {
	Server  metrics.ServerSnapshot `json:"server"`
	Shards  []server.ShardStat     `json:"shards"`
	Manager rtm.Stats              `json:"manager"`
}

// procSample is what the kernel says about the daemon process.
type procSample struct {
	cpu   time.Duration // user + system
	syscr int64         // read-class syscalls
	syscw int64         // write-class syscalls
	hwmMB float64       // VmHWM, the peak resident set so far
}

// sample reads /stats and the daemon's /proc counters at one instant.
func (d *daemon) sample() (statsDoc, procSample, error) {
	var doc statsDoc
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		if err = getJSON("http://"+d.httpAddr+"/stats", &doc); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond) // the stats listener starts just after the service one
	}
	if err != nil {
		return doc, procSample{}, err
	}
	ps, err := readProc(d.cmd.Process.Pid)
	return doc, ps, err
}

func getJSON(url string, into any) error {
	c := http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 on every architecture Go supports.
const clockTick = 10 * time.Millisecond

// readProc reads CPU time from /proc/<pid>/stat, syscall counts from
// /proc/<pid>/io and the peak resident set from /proc/<pid>/status.
func readProc(pid int) (procSample, error) {
	var ps procSample
	dir := "/proc/" + strconv.Itoa(pid)
	stat, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return ps, err
	}
	// The command name is parenthesised and may hold spaces; fields are
	// counted after it, starting at field 3 (state).
	s := string(stat)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return ps, fmt.Errorf("%s/stat: %d fields", dir, len(fields))
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return ps, fmt.Errorf("%s/stat: %w", dir, err)
	}
	ps.cpu = time.Duration(utime+stime) * clockTick

	io, err := os.ReadFile(dir + "/io")
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(io), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if err != nil {
			continue
		}
		switch k {
		case "syscr":
			ps.syscr = n
		case "syscw":
			ps.syscw = n
		}
	}

	status, err := os.ReadFile(dir + "/status")
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return ps, fmt.Errorf("%s/status: VmHWM: %w", dir, err)
			}
			ps.hwmMB = kb / 1024
		}
	}
	return ps, nil
}

// procEvery samples the daemon's /proc counters now and then every
// interval until the returned stop function is called; stop returns the
// samples.
func (d *daemon) procEvery(interval time.Duration) (stop func() ([]procSample, error), err error) {
	first, err := readProc(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	marks := []procSample{first}
	var readErr error
	done, finished := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(finished)
		// One sample per boundary even when this goroutine runs late: a
		// ticker would drop the late ticks and shift later samples off the
		// windows they close.
		next := time.Now()
		for {
			next = next.Add(interval)
			timer := time.NewTimer(time.Until(next))
			select {
			case <-timer.C:
				ps, err := readProc(d.cmd.Process.Pid)
				if err != nil {
					readErr = err
					return
				}
				marks = append(marks, ps)
			case <-done:
				timer.Stop()
				return
			}
		}
	}()
	return func() ([]procSample, error) {
		close(done)
		<-finished
		return marks, readErr
	}, nil
}

// serviceSetup launches pcpdad setupLaunches times, stopping all but the
// last (each must drain clean), and returns the last one with the median
// launch-to-first-handshake time.
func serviceSetup(r *run, launches int) (*daemon, float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		d, setup, err := startDaemon(r, fmt.Sprintf("pcpdad-%d.log", i))
		if err != nil {
			return nil, 0, err
		}
		setups = append(setups, setup.Seconds())
		if i == launches-1 {
			return d, median(setups), nil
		}
		// pcpdad installs its SIGTERM handler only after it starts serving,
		// so a SIGTERM sent right after the handshake can kill it before it
		// drains. Stop an idle launch once /stats answers and a moment has
		// passed.
		if _, _, err := d.sample(); err != nil {
			d.kill()
			return nil, 0, err
		}
		time.Sleep(100 * time.Millisecond)
		ex, err := d.stop()
		if err != nil {
			return nil, 0, err
		}
		r.check(ex.code == 0, "idle pcpdad launch %d exited %d: %s", i, ex.code, d.logTail())
	}
}

// dialAll opens n pipelined connections with the given request window and
// checks that the daemon pipelines and speaks wire v4 (read-only
// transactions).
func dialAll(addr string, n, window int) ([]*client.PipeConn, error) {
	conns := make([]*client.PipeConn, 0, n)
	for i := 0; i < n; i++ {
		pc, err := client.DialPipelined(addr, 10*time.Second, window)
		if err != nil {
			closeAll(conns)
			return nil, err
		}
		conns = append(conns, pc)
		if !pc.Pipelined() || pc.Schema().Proto < wire.V4 {
			closeAll(conns)
			return nil, fmt.Errorf("pcpdad speaks wire v%d; the benchmark needs pipelined v%d", pc.Schema().Proto, wire.V4)
		}
	}
	return conns, nil
}

func closeAll(conns []*client.PipeConn) {
	for _, pc := range conns {
		_ = pc.Close()
	}
}
