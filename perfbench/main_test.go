package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/coverage"
	"repro/internal/datamodel"
	"repro/internal/executor"
	"repro/internal/sandbox"
	"repro/internal/targets"
	"repro/peachstar"
)

// tinySizes keeps every workload's campaign unit to a fraction of a second.
var tinySizes = sizes{
	serialExecs:  2_000,
	sessionExecs: 20_000,
	ckptEvery:    4_096,
	fleetExecs:   20_000,
	procExecs:    300,
}

// buildServer compiles the toy Modbus server for the proc-toy workload.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "toy-server")
	out, err := exec.Command("go", "build", "-o", bin, "repro/examples/realtarget/server").CombinedOutput()
	if err != nil {
		t.Fatalf("building the toy server: %v\n%s", err, out)
	}
	return bin
}

type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func units(list []struct{ Name, Unit string }) map[string]string {
	m := map[string]string{}
	for _, x := range list {
		m[x.Name] = x.Unit
	}
	return m
}

// TestWorkloadsTiny runs every workload, untraced and traced, at a tiny
// budget: each must pass its correctness checks and print exactly the
// metrics BENCHMARK.json names, with their units.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs campaigns")
	}
	b := loadBenchmarkFile(t)
	want := map[bool]map[string]string{false: units(b.EndToEnd), true: units(b.PerLayer)}
	server := buildServer(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, wl := range b.Workload {
		w, ok := workloads[wl.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark lacks", wl.Name)
		}
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			e := &env{seed: 3, seconds: 0, trace: trace, work: t.TempDir(), server: server, out: &out, stderr: &out, sz: tinySizes}
			res, err := measure(w, e)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					w.name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if races := fmt.Sprintf(" %d of them from races\n", w.races); !trace && !strings.Contains(out.String(), races) {
				t.Errorf("%s: one unit should read time_to_edges_s from %d races too\n%s", w.name, w.races, out.String())
			}
			if len(res.Metrics) != len(want[trace]) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.name, trace, len(res.Metrics), len(want[trace]))
			}
			for name, m := range res.Metrics {
				if !nameRE.MatchString(name) {
					t.Errorf("metric name %q does not match %s", name, nameRE)
				}
				if u, ok := want[trace][name]; !ok || u != m.Unit {
					t.Errorf("%s trace=%v: metric %s [%s] is not in BENCHMARK.json with that unit", w.name, trace, name, m.Unit)
				}
			}
		}
	}
}

// TestBenchmarkFileMatchesCode pins the metric tables to BENCHMARK.json.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	b := loadBenchmarkFile(t)
	for _, c := range []struct {
		file map[string]string
		code map[string]string
	}{{units(b.EndToEnd), endToEndUnits}, {units(b.PerLayer), perLayerUnits}} {
		if len(c.file) != len(c.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, the code %d", len(c.file), len(c.code))
		}
		for n, u := range c.code {
			if c.file[n] != u {
				t.Errorf("metric %s: code unit %q, BENCHMARK.json %q", n, u, c.file[n])
			}
		}
	}
	if len(b.Workload) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code %d", len(b.Workload), len(workloads))
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: the helper must sort
		}
		return xs
	}
	for _, c := range []struct {
		n       int
		want    float64
		value   float64
		reports float64
	}{
		{1000, 99, 990, 99},     // exactly ten samples beyond p99
		{100, 99, 90, 90},       // p99 lowered to the rank with ten beyond
		{100, 50, 50, 50},       // the median is far from the tail
		{200, 99, 190, 95},      // ten beyond rank 190
		{11, 99, 1, 100.0 / 11}, // rank 0 is the only one with ten beyond
		{5, 99, 3, 60},          // too few for any tail: the median
	} {
		v, p := percentile(seq(c.n), c.want)
		if v != c.value || p != c.reports {
			t.Errorf("n=%d p%.0f: got %v at p%.2f, want %v at p%.2f", c.n, c.want, v, p, c.value, c.reports)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if c.n > minTail && beyond < minTail {
			t.Errorf("n=%d: only %d samples beyond the reported percentile", c.n, beyond)
		}
	}
	if v, _ := percentile(nil, 99); v != 0 {
		t.Errorf("no samples: got %v", v)
	}
}

func TestHistPercentile(t *testing.T) {
	var h hist
	for i := 1; i <= 1000; i++ {
		h.add(time.Millisecond) // then a slow tail of ten
	}
	for i := 0; i < 10; i++ {
		h.add(time.Second)
	}
	if v, p := h.percentile(50); v < 0.97e6 || v > 1.03e6 || p != 50 {
		t.Errorf("p50 = %v at p%v, want about 1e6", v, p)
	}
	// 1010 samples: p99 (rank 999) has exactly ten beyond it.
	if v, _ := h.percentile(99); v > 1.03e6 {
		t.Errorf("p99 = %v, want the last fast sample", v)
	}
	if v, p := h.percentile(100); v > 1.03e6 || p != 100*1000.0/1010 {
		t.Errorf("p100 = %v at p%v: not capped ten samples short of the top", v, p)
	}
	for _, x := range []int64{0, 1, 31, 32, 63, 64, 1000, 123456789} {
		got := histValue(histBucket(x))
		if d := got - float64(x); d < 0 && -d > float64(x)/histSub || d > 0 && d > float64(x)/histSub+0.5 {
			t.Errorf("bucket of %d reads %v", x, got)
		}
	}
}

// targetIfaces and execIfaces are the optional interfaces the engine
// probes a target and an executor for.
type targetIfaces struct{ ck, reset, session bool }

type execIfaces struct{ session, ck, restarts bool }

func probeTarget(v any) targetIfaces {
	_, ck := v.(sandbox.StateCheckpointer)
	_, rs := v.(executor.SessionResetter)
	_, ss := v.(targets.SessionTarget)
	return targetIfaces{ck, rs, ss}
}

func probeExec(v any) execIfaces {
	_, se := v.(executor.SessionExecutor)
	_, ck := v.(executor.StateCheckpointer)
	_, rr := v.(restarter)
	return execIfaces{se, ck, rr}
}

// TestWrappersForwardOptionalInterfaces: a wrapper has exactly the
// optional interfaces of the value it wraps.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	for _, name := range peachstar.TargetNames() {
		tg, err := targets.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := probeTarget(wrapTarget(tg, newSeamRec())), probeTarget(tg); got != want {
			t.Errorf("%s: wrapper implements %+v, target %+v", name, got, want)
		}
	}
	iec, _ := targets.New("IEC104")
	if p := probeTarget(wrapTarget(iec, newSeamRec())); !p.session || !p.ck || !p.reset {
		t.Errorf("IEC104 wrapper lost an interface: %+v", p)
	}
	proc, err := executor.NewProc(executor.ProcConfig{Cmd: []string{"true"}, Addr: "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []executor.Executor{executor.NewInProc(iec), proc} {
		if got, want := probeExec(wrapExec(x, newSeamRec())), probeExec(x); got != want {
			t.Errorf("%T: wrapper implements %+v, executor %+v", x, got, want)
		}
	}
	if p := probeExec(wrapExec(proc, newSeamRec())); !p.restarts || !p.session {
		t.Errorf("Proc wrapper lost Restarts or BeginSession: %+v", p)
	}
}

type panicTarget struct{ v any }

func (p panicTarget) Name() string                              { return "panic" }
func (p panicTarget) Models() []*datamodel.Model                { return nil }
func (p panicTarget) Handle(tr *coverage.Tracer, packet []byte) { panic(p.v) }

// TestWrapperPanicPassesThrough: a panicking Handle is timed and counted,
// and the panic reaches the caller with its own value.
func TestWrapperPanicPassesThrough(t *testing.T) {
	boom := errors.New("boom")
	rec := newSeamRec()
	w := wrapTarget(panicTarget{boom}, rec)
	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Errorf("recovered %v, want the target's own value", r)
			}
		}()
		w.Handle(coverage.NewTracer(), []byte{1})
	}()
	if rec.handle.n != 1 || rec.faults != 1 || rec.calls != 1 {
		t.Errorf("handle.n=%d faults=%d calls=%d, want 1 each", rec.handle.n, rec.faults, rec.calls)
	}
}

// TestRunFlags: bad arguments exit non-zero without a result.
func TestRunFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "packet-serial", "--trace", "2"},
	} {
		if code := runTo(io.Discard, io.Discard, args); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
	}
}
