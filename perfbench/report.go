package main

import (
	"fmt"
	"time"

	"repro/peachstar"
)

// endToEndUnits and perLayerUnits name every metric the benchmark prints,
// with its unit; BENCHMARK.json lists the same names.
var endToEndUnits = map[string]string{
	"execs_per_sec":   "1/s",
	"edges":           "count",
	"paths":           "count",
	"time_to_edges_s": "s",
	"setup_s":         "s",
	"rss_peak_mb":     "MB",
}

var perLayerUnits = map[string]string{
	"crash.unique":              "count",
	"crash.hangs":               "count",
	"core.step_ns_p50":          "ns",
	"core.step_ns_p99":          "ns",
	"core.step_self_ns":         "ns",
	"core.steps":                "count",
	"core.execs_per_step":       "count",
	"core.semantic_exec_share":  "ratio",
	"core.valuable_per_kexec":   "count",
	"datamodel.generate_ns":     "ns",
	"datamodel.fixup_ns":        "ns",
	"datamodel.render_ns":       "ns",
	"datamodel.crack_ns":        "ns",
	"datamodel.crack_ok_ratio":  "ratio",
	"mutator.mutate_ns":         "ns",
	"corpus.add_ns":             "ns",
	"corpus.donors_ns":          "ns",
	"corpus.puzzles":            "count",
	"coverage.merge_ns":         "ns",
	"coverage.pathhash_ns":      "ns",
	"coverage.hitcounts_ns":     "ns",
	"coverage.edges_per_exec":   "count",
	"targets.handle_ns_p50":     "ns",
	"targets.handle_ns_p99":     "ns",
	"targets.handles":           "count",
	"targets.crash_ratio":       "ratio",
	"session.seq_ns_p50":        "ns",
	"session.msgs_per_seq":      "count",
	"session.reset_ns":          "ns",
	"session.states_reached":    "count",
	"checkpoint.write_ms_p50":   "ms",
	"checkpoint.write_ms_p90":   "ms",
	"checkpoint.writes":         "count",
	"checkpoint.bytes":          "B",
	"checkpoint.share":          "ratio",
	"checkpoint.restore_ms":     "ms",
	"fleetnet.sync_us_p50":      "us",
	"fleetnet.sync_us_p99":      "us",
	"fleetnet.sync_share":       "ratio",
	"fleetnet.windows":          "count",
	"fleetnet.bytes_per_window": "B",
	"executor.run_us_p50":       "us",
	"executor.run_us_p99":       "us",
	"executor.runs":             "count",
	"executor.hang_wait_s":      "s",
	"executor.restarts":         "count",
	"executor.respawn_ms_p50":   "ms",
	"trace.overhead_pct":        "%",
}

// measure runs workload w for e.seconds and returns its result: the
// end-to-end metrics, or with e.trace the per-layer ones.
func measure(w *workload, e *env) (result, error) {
	var t tally
	o := newObs()
	// A traced run splits its time: the untraced units first, then the
	// same units again behind the seams, then the layer replay.
	window := e.seconds
	if e.trace {
		window = e.seconds * 2 / 5
	}
	var reps []rep
	var seeds []uint64
	var races, setups []float64
	setup := func(n int) error {
		if e.trace || n <= 0 {
			return nil // a traced run does not report set-up time
		}
		seeds := make([]uint64, n)
		for i := range seeds {
			seeds[i] = setupSeed(e.seed, len(setups)+i)
		}
		more, err := w.setup(e, seeds)
		setups = append(setups, more...)
		return err
	}
	// Units run until the next one would end closer to the window's end
	// if skipped than if run: half a unit's time past the window at most.
	start := time.Now()
	for i := 0; i == 0 || time.Since(start)+time.Since(start)/time.Duration(2*i) < window; i++ {
		s := campaignSeed(e.seed, i)
		r, err := w.run(e, s, false, &t, o)
		if err != nil {
			return result{}, err
		}
		reps = append(reps, r)
		seeds = append(seeds, s)
		for j := 0; j < w.races && !e.trace; j++ {
			r, err := w.run(e, raceSeed(s, j), true, &t, newObs())
			if err != nil {
				return result{}, fmt.Errorf("race: %w", err)
			}
			races = append(races, r.tte.Seconds())
		}
		if err := setup(setupsPerUnit); err != nil {
			return result{}, err
		}
	}
	if err := setup(setupTrials - len(setups)); err != nil {
		return result{}, err
	}
	var metrics map[string]metric
	if e.trace {
		for i, s := range seeds {
			if err := w.traced(e, s, &t, o, reps[i]); err != nil {
				return result{}, err
			}
		}
		var captured [][]byte
		for _, rec := range o.recs.all() {
			captured = append(captured, rec.captured...)
		}
		metrics = perLayer(e, o, replayLayers(e.seed, o.models, captured))
	} else {
		metrics = endToEnd(e, reps, races, setups)
	}
	fmt.Fprintf(e.out, "# %d campaign units, seeds split from %d\n", len(reps), e.seed)
	for _, p := range t.problems {
		fmt.Fprintf(e.stderr, "perfbench: check failed: %s\n", p)
	}
	return result{
		Correct:   len(t.problems) == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   metrics,
	}, nil
}

// endToEnd reads time_to_edges_s over the units and the races together.
func endToEnd(e *env, reps []rep, races, setups []float64) map[string]metric {
	var eps, edges, paths []float64
	tte := append([]float64(nil), races...)
	for _, r := range reps {
		fmt.Fprintf(e.out, "# unit: %d execs in %.3fs, %d edges, edge target at %.3fs\n", r.execs, r.wall.Seconds(), r.edges, r.tte.Seconds())
		eps = append(eps, float64(r.execs)/r.wall.Seconds())
		edges = append(edges, float64(r.edges))
		paths = append(paths, float64(r.paths))
		tte = append(tte, r.tte.Seconds())
	}
	fmt.Fprintf(e.out, "# time_to_edges_s is the median of %d readings, %d of them from races\n", len(tte), len(races))
	fmt.Fprintf(e.out, "# setup_s is the median of %d set-ups\n", len(setups))
	v := map[string]float64{
		"execs_per_sec":   median(eps),
		"edges":           median(edges),
		"paths":           median(paths),
		"time_to_edges_s": median(tte),
		"setup_s":         median(setups),
		"rss_peak_mb":     peakRSSMB(),
	}
	return withUnits(v, endToEndUnits)
}

func withUnits(v map[string]float64, units map[string]string) map[string]metric {
	out := make(map[string]metric, len(v))
	for n, x := range v {
		u, ok := units[n]
		if !ok {
			panic("perfbench: metric " + n + " has no unit")
		}
		out[n] = metric{Value: x, Unit: u}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer turns a traced run's observations into the per-layer metrics.
// A layer the workload does not exercise reads 0.
func perLayer(e *env, o *obs, rp *replayOut) map[string]metric {
	var handle, reset, merge, pathhash, hitcounts, run hist
	var calls, faults, edges, sampled int64
	var hangWait time.Duration
	var respawn []float64
	for _, r := range o.recs.all() {
		handle.merge(&r.handle)
		reset.merge(&r.reset)
		merge.merge(&r.merge)
		pathhash.merge(&r.pathhash)
		hitcounts.merge(&r.hitcounts)
		run.merge(&r.run)
		calls += r.calls
		faults += r.faults
		edges += r.edges
		sampled += r.sampled
		hangWait += r.hangWait
		respawn = append(respawn, r.respawn...)
	}
	var st peachstar.Stats // summed over the traced campaigns
	var puzzles, states, restarts, crashes, hangs []float64
	for _, s := range o.tracedStats {
		st.Execs += s.Execs
		st.Iterations += s.Iterations
		st.SemanticExecs += s.SemanticExecs
		st.Paths += s.Paths
		st.Sequences += s.Sequences
		puzzles = append(puzzles, float64(s.CorpusPuzzles))
		states = append(states, float64(s.StatesReached))
		restarts = append(restarts, float64(s.TargetRestarts))
		crashes = append(crashes, float64(s.UniqueCrashes))
		hangs = append(hangs, float64(s.Hangs))
	}
	campaigns := float64(len(o.tracedStats))
	v := map[string]float64{}
	note := func(name string, n int64, p float64) {
		if n > 0 {
			fmt.Fprintf(e.out, "# %s: %d samples, tail read at p%.1f\n", name, n, p)
		}
	}

	v["core.step_ns_p50"], _ = o.step.percentile(50)
	var p float64
	v["core.step_ns_p99"], p = o.step.percentile(99)
	note("core.step_ns", o.steps, p)
	v["core.steps"] = float64(o.steps)
	v["core.step_self_ns"] = ratio(float64(o.stepSelf), float64(o.steps))
	if o.steps > 0 {
		v["core.execs_per_step"] = ratio(float64(o.stepExecs), float64(o.steps))
	} else {
		v["core.execs_per_step"] = ratio(float64(st.Execs), float64(st.Iterations))
	}
	v["core.semantic_exec_share"] = ratio(float64(st.SemanticExecs), float64(st.Execs))
	v["core.valuable_per_kexec"] = 1000 * ratio(float64(st.Paths), float64(st.Execs))

	v["crash.unique"] = median(crashes)
	v["crash.hangs"] = median(hangs)

	v["datamodel.generate_ns"], _ = rp.generate.percentile(50)
	v["datamodel.fixup_ns"], _ = rp.fixup.percentile(50)
	v["datamodel.render_ns"], _ = rp.render.percentile(50)
	v["datamodel.crack_ns"], _ = rp.crack.percentile(50)
	v["datamodel.crack_ok_ratio"] = ratio(float64(rp.cracked), float64(rp.crackTried))
	v["mutator.mutate_ns"], _ = rp.mutate.percentile(50)
	v["corpus.add_ns"], _ = rp.add.percentile(50)
	v["corpus.donors_ns"], _ = rp.donors.percentile(50)
	v["corpus.puzzles"] = median(puzzles)

	v["coverage.merge_ns"], _ = merge.percentile(50)
	v["coverage.pathhash_ns"], _ = pathhash.percentile(50)
	v["coverage.hitcounts_ns"], _ = hitcounts.percentile(50)
	v["coverage.edges_per_exec"] = ratio(float64(edges), float64(sampled))

	v["targets.handle_ns_p50"], _ = handle.percentile(50)
	v["targets.handle_ns_p99"], p = handle.percentile(99)
	note("targets.handle_ns", handle.n, p)
	v["targets.handles"] = float64(handle.n)
	v["targets.crash_ratio"] = ratio(float64(faults), float64(calls))

	if st.Sequences > 0 {
		v["session.seq_ns_p50"], _ = o.step.percentile(50)
		v["session.msgs_per_seq"] = ratio(float64(st.Execs), float64(st.Sequences))
	} else {
		v["session.seq_ns_p50"], v["session.msgs_per_seq"] = 0, 0
	}
	v["session.reset_ns"], _ = reset.percentile(50)
	v["session.states_reached"] = median(states)

	v["checkpoint.write_ms_p50"], _ = percentile(o.ckptMs, 50)
	v["checkpoint.write_ms_p90"], p = percentile(o.ckptMs, 90)
	note("checkpoint.write_ms", int64(len(o.ckptMs)), p)
	v["checkpoint.writes"] = float64(len(o.ckptMs))
	v["checkpoint.bytes"] = median(o.ckptBytes)
	v["checkpoint.share"] = ratio(float64(o.ckptTime), float64(o.plainWall))
	v["checkpoint.restore_ms"] = median(o.restoreMs)

	v["fleetnet.sync_us_p50"], _ = percentile(o.syncUs, 50)
	v["fleetnet.sync_us_p99"], p = percentile(o.syncUs, 99)
	note("fleetnet.sync_us", int64(len(o.syncUs)), p)
	v["fleetnet.sync_share"] = ratio(float64(o.syncTime), float64(o.plainWall))
	v["fleetnet.windows"] = ratio(float64(o.windows), float64(o.plainCampaigns))
	v["fleetnet.bytes_per_window"] = ratio(float64(o.relayBytes), float64(o.tracedWindows))

	v["executor.run_us_p50"], _ = run.percentile(50)
	v["executor.run_us_p99"], p = run.percentile(99)
	note("executor.run_us", run.n, p)
	v["executor.run_us_p50"] /= 1e3
	v["executor.run_us_p99"] /= 1e3
	v["executor.runs"] = float64(run.n)
	v["executor.hang_wait_s"] = ratio(hangWait.Seconds(), campaigns)
	v["executor.restarts"] = median(restarts)
	v["executor.respawn_ms_p50"] = median(respawn)

	plain := ratio(float64(o.plainExecs), o.plainWall.Seconds())
	traced := ratio(float64(o.tracedExecs), o.tracedWall.Seconds())
	v["trace.overhead_pct"] = 100 * ratio(plain-traced, plain)
	return withUnits(v, perLayerUnits)
}
