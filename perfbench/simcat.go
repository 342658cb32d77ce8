package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"pcpda/internal/scenario"
	"pcpda/internal/sim"
)

// simSeeds widens every catalog spec's seed sweep, so one catalog pass is
// seconds of simulation rather than process start-up.
const simSeeds = 30

// catalog is the scenario catalog: every spec under scenarios/, sorted,
// with the number of protocol × phase × seed cells each one runs.
type catalog struct {
	specs     []string
	cells     map[string]int64
	protocols []string
}

func loadCatalog() (*catalog, error) {
	specs, err := filepath.Glob(filepath.Join("scenarios", "*.json"))
	if err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no scenario specs under scenarios/; run from the root of a checkout")
	}
	sort.Strings(specs)
	c := &catalog{specs: specs, cells: make(map[string]int64), protocols: sim.Protocols()}
	for _, path := range specs {
		spec, err := scenario.Load(path)
		if err != nil {
			return nil, err
		}
		c.cells[path] = int64(len(spec.Phases) * simSeeds * len(c.protocols))
	}
	return c, nil
}

// runScenario runs pcpscenario with args and reports how it ended.
func runScenario(r *run, args ...string) (exitReport, string, error) {
	cmd := exec.Command(filepath.Join(r.bin, "pcpscenario"), args...)
	cmd.SysProcAttr = orphanKill
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return exitReport{}, "", fmt.Errorf("start pcpscenario: %w", err)
	}
	ex, err := childExit(cmd, start)
	return ex, strings.TrimSpace(out.String()), err
}

// pass is one run of pcpscenario over every catalog spec.
type pass struct {
	wall, cpu   time.Duration
	peakMB      float64
	cells       int64
	failedCells int64
	reports     map[string][]byte        // spec → report document
	specWall    map[string]time.Duration // spec → pcpscenario launch to exit
}

// catalogPass runs every spec with the widened sweep, every protocol and
// the given sim worker count, and checks each report's cell count.
func (c *catalog) pass(r *run, workers int, tag string) (*pass, error) {
	p := &pass{reports: make(map[string][]byte), specWall: make(map[string]time.Duration)}
	for _, path := range c.specs {
		out := filepath.Join(r.work, tag+"-"+filepath.Base(path))
		ex, msg, err := runScenario(r, "-q", "-f", path, "-seeds", strconv.Itoa(simSeeds),
			"-j", strconv.Itoa(workers), "-protocols", strings.Join(c.protocols, ","), "-o", out)
		if err != nil {
			return nil, err
		}
		p.wall += ex.wall
		p.specWall[path] = ex.wall
		p.cpu += ex.cpu
		p.peakMB = max(p.peakMB, ex.peakMB)
		p.cells += c.cells[path]
		if ex.code != 0 {
			r.check(false, "pcpscenario %s exited %d: %s", path, ex.code, msg)
			p.failedCells += c.cells[path]
			continue
		}
		b, err := os.ReadFile(out)
		if err != nil {
			return nil, err
		}
		p.reports[path] = b
		got, err := reportCells(b)
		r.check(err == nil && got == c.cells[path], "%s report holds %d cells (%v), want %d", path, got, err, c.cells[path])
	}
	return p, nil
}

// reportCells counts the protocol × phase × seed cells a report document
// aggregates.
func reportCells(b []byte) (int64, error) {
	var doc scenario.Document
	if err := json.Unmarshal(b, &doc); err != nil {
		return 0, err
	}
	var n int64
	for _, rep := range doc.Reports {
		n += int64(len(rep.Rows) * rep.Seeds)
	}
	return n, nil
}

func runSimCatalog(r *run) (*result, error) {
	c, err := loadCatalog()
	if err != nil {
		return nil, err
	}
	if r.trace {
		return c.layers(r)
	}
	// Set-up: launch to exit of the smallest useful run — the first spec,
	// one seed, one protocol — which is process start, spec load and
	// base-set generation plus a few cells.
	var setups []float64
	for i := 0; i < setupLaunches; i++ {
		ex, msg, err := runScenario(r, "-q", "-f", c.specs[0], "-seeds", "1", "-protocols", "pcpda")
		if err != nil {
			return nil, err
		}
		r.check(ex.code == 0, "pcpscenario set-up run exited %d: %s", ex.code, msg)
		setups = append(setups, ex.wall.Seconds())
	}

	var passes []*pass
	start := time.Now()
	for len(passes) == 0 || time.Since(start).Seconds() < r.seconds {
		p, err := c.pass(r, nproc, fmt.Sprintf("pass%d", len(passes)))
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	// Determinism: every pass must match the first byte for byte, and so
	// must a one-worker pass.
	ref, err := c.pass(r, 1, "ref")
	if err != nil {
		return nil, err
	}
	digest := sha256.New()
	var mismatched int64
	others := append(append([]*pass(nil), passes[1:]...), ref)
	for _, path := range c.specs {
		first := passes[0].reports[path]
		for i, p := range others {
			if b, ok := p.reports[path]; ok && !bytes.Equal(b, first) {
				r.check(false, "%s: report %d differs from the first %d-worker report", path, i+1, nproc)
				mismatched += c.cells[path]
			}
		}
		fmt.Fprintf(digest, "%s\n%s", path, first)
	}
	note("catalog report digest sha256:%x (%d specs, workers %d = workers 1)", digest.Sum(nil), len(c.specs), nproc)

	// Each figure is the median over the passes, as the service workloads
	// take the median over their windows. The unit of
	// latency is one scenario run (one pcpscenario invocation): the median
	// and the slowest over the catalog's specs.
	var cells, failed int64
	var peak float64
	var rates, cpus []float64
	for _, p := range passes {
		cells += p.cells
		failed += p.failedCells
		peak = max(peak, p.peakMB)
		rates = append(rates, float64(p.cells)/p.wall.Seconds())
		cpus = append(cpus, ratio(float64(p.cpu/time.Microsecond), float64(p.cells)))
	}
	var specMs latencies
	for _, path := range c.specs {
		var runs []float64
		for _, p := range passes {
			runs = append(runs, float64(p.specWall[path])/float64(time.Millisecond))
		}
		specMs = append(specMs, median(runs))
	}
	failed = min(cells, failed+mismatched)
	p50, tailP, tailV, n := specMs.summary()
	note("%d passes, %d cells; median scenario runs: p50 %.1fms, tail p%.3g %.1fms of %d specs",
		len(passes), cells, p50, tailP, tailV, n)
	return &result{
		Attempted: cells,
		Failed:    failed,
		Metrics: endToEnd{
			setupS: median(setups), throughput: median(rates), p50Ms: p50, tailMs: tailV,
			ok: ratio(float64(cells-failed), float64(cells)), cpuUs: median(cpus), rssMB: peak,
		}.metrics(),
	}, nil
}

// layers is the traced sim-catalog run. It times spec loading, then runs
// the catalog once through pcpscenario (untraced) and once in-process one
// protocol at a time through scenario.RunSim (traced), and checks that
// each protocol's rows match the child's report.
func (c *catalog) layers(r *run) (*result, error) {
	var loads []float64
	for rep := 0; rep < 20; rep++ {
		start := time.Now()
		for _, path := range c.specs {
			if _, err := scenario.Load(path); err != nil {
				return nil, err
			}
		}
		loads = append(loads, float64(time.Since(start))/float64(time.Millisecond))
	}
	vals := map[string]float64{"scenario.load_ms": median(loads)}

	plain, err := c.pass(r, nproc, "plain")
	if err != nil {
		return nil, err
	}
	childRows := make(map[string]map[string][]byte) // spec → protocol → rows JSON
	for path, b := range plain.reports {
		var doc scenario.Document
		if err := json.Unmarshal(b, &doc); err != nil {
			return nil, err
		}
		childRows[path] = rowsByProtocol(doc.Reports)
	}

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	var total time.Duration
	var cells, mismatched int64
	for _, proto := range c.protocols {
		var took time.Duration
		var protoCells int64
		for _, path := range c.specs {
			spec, err := scenario.Load(path)
			if err != nil {
				return nil, err
			}
			spec.Seeds = simSeeds
			start := time.Now()
			rep, err := scenario.RunSim(spec, scenario.SimOptions{Workers: nproc, Protocols: []string{proto}})
			took += time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", path, proto, err)
			}
			n := int64(len(rep.Rows) * rep.Seeds)
			protoCells += n
			got := rowsByProtocol([]*scenario.Report{rep})[proto]
			if want, ok := childRows[path][proto]; ok && !bytes.Equal(got, want) {
				r.check(false, "%s: in-process %s rows differ from pcpscenario's", path, proto)
				mismatched += n
			}
		}
		vals["sim."+proto+"_ms_per_cell"] = ratio(float64(took)/float64(time.Millisecond), float64(protoCells))
		total += took
		cells += protoCells
	}
	runtime.ReadMemStats(&ms1)
	vals["sim.allocs_per_cell"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(cells))
	vals["trace.overhead_ratio"] = ratio(float64(cells)/total.Seconds(), float64(plain.cells)/plain.wall.Seconds())
	return &result{Attempted: max(1, cells), Failed: mismatched, Metrics: layerMetrics(vals)}, nil
}

// rowsByProtocol groups report rows by protocol, rendered as JSON.
func rowsByProtocol(reps []*scenario.Report) map[string][]byte {
	rows := make(map[string][]scenario.PhaseReport)
	for _, rep := range reps {
		for _, row := range rep.Rows {
			rows[row.Protocol] = append(rows[row.Protocol], row)
		}
	}
	out := make(map[string][]byte, len(rows))
	for proto, rs := range rows {
		b, err := json.Marshal(rs)
		if err != nil {
			panic(err) // PhaseReport holds only numbers, strings and slices of them
		}
		out[proto] = b
	}
	return out
}
