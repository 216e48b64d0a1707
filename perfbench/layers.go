package main

// layerSpec is a per-layer metric of BENCHMARK.json. Every workload
// reports every one; a layer a workload does not run reads 0, which is
// itself the check that the workload bypasses it.
type layerSpec struct{ name, unit string }

// layerSpecs are the per-layer metrics of BENCHMARK.json, in order:
// per-pass counts and ratios read from obs.Default or from the
// workload's own calls, then the probes at GOMAXPROCS=1 and nproc,
// then the tracing overhead. Per-layer times of layers that only some
// workloads run (the opt phases, queue waits, HTTP handler times) are
// reported in the result file and the printed report instead, since
// on the other workloads they would read a constant 0 s.
var layerSpecs = func() []layerSpec {
	ls := []layerSpec{
		{"opt.moves", "count"},
		{"search.rounds", "count"},
		{"search.proposed", "count"},
		{"search.accepted", "count"},
		{"search.accept_ratio", "ratio"},
		{"search.spec_rounds", "count"},
		{"search.spec_aborts", "count"},
		{"search.spec_hit_ratio", "ratio"},
		{"engine.scored", "count"},
		{"engine.applied", "count"},
		{"engine.reverted", "count"},
		{"engine.refreshes", "count"},
		{"engine.replay_resyncs", "count"},
		{"engine.full_resyncs", "count"},
		{"engine.replayed_moves", "count"},
		{"ssta.full_analyses", "count"},
		{"ssta.incremental_updates", "count"},
		{"ssta.nodes_retimed", "count"},
		{"ssta.nodes_per_update", "count"},
		{"montecarlo.samples", "count"},
		{"montecarlo.runs", "count"},
		{"montecarlo.is_ess_ratio", "ratio"},
		{"yield.is_batches", "count"},
		{"server.polls_per_job", "count"},
		{"server.retries", "count"},
		{"server.panicked", "count"},
		{"cluster.routed", "count"},
		{"cluster.steals", "count"},
		{"cluster.failovers", "count"},
		{"cluster.collision_frac", "ratio"},
	}
	for _, suffix := range []string{".p1", ".pn"} {
		for _, p := range probes {
			ls = append(ls, layerSpec{p.name + suffix, p.unit})
		}
	}
	return append(ls, layerSpec{"trace.overhead_pct", "%"})
}()

// counterLayers turns the obs.Default deltas of a workload's measured
// passes into per-pass layer metrics.
func counterLayers(c counters, passes int) []metric {
	if passes == 0 {
		return nil
	}
	n := float64(passes)
	per := func(name string) float64 { return c.sum(name) / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	proposed, accepted := per("statleak_opt_moves_proposed_total"), per("statleak_opt_moves_accepted_total")
	specRounds, specAborts := per("statleak_search_spec_rounds_total"), per("statleak_search_spec_aborts_total")
	updates, retimed := per("statleak_ssta_incremental_updates_total"), per("statleak_ssta_incremental_nodes_retimed_total")
	hit := 0.0
	if specRounds > 0 {
		hit = 1 - specAborts/specRounds
	}
	return []metric{
		{Name: "search.rounds", Value: per("statleak_search_rounds_total"), Unit: "count"},
		{Name: "search.proposed", Value: proposed, Unit: "count"},
		{Name: "search.accepted", Value: accepted, Unit: "count"},
		{Name: "search.accept_ratio", Value: ratio(accepted, proposed), Unit: "ratio"},
		{Name: "search.spec_rounds", Value: specRounds, Unit: "count"},
		{Name: "search.spec_aborts", Value: specAborts, Unit: "count"},
		{Name: "search.spec_hit_ratio", Value: hit, Unit: "ratio"},
		{Name: "search.commit_stall_s", Value: per("statleak_search_spec_commit_stall_seconds_sum"), Unit: "s"},
		{Name: "engine.scored", Value: per("statleak_engine_moves_scored_total"), Unit: "count"},
		{Name: "engine.applied", Value: per("statleak_engine_moves_applied_total"), Unit: "count"},
		{Name: "engine.reverted", Value: per("statleak_engine_moves_reverted_total"), Unit: "count"},
		{Name: "engine.refreshes", Value: per("statleak_engine_cache_refresh_seconds_count"), Unit: "count"},
		{Name: "engine.refresh_s", Value: per("statleak_engine_cache_refresh_seconds_sum"), Unit: "s"},
		{Name: "engine.replay_resyncs", Value: per("statleak_engine_worker_replay_resyncs_total"), Unit: "count"},
		{Name: "engine.full_resyncs", Value: per("statleak_engine_worker_full_resyncs_total"), Unit: "count"},
		{Name: "engine.replayed_moves", Value: per("statleak_engine_worker_replayed_moves_total"), Unit: "count"},
		{Name: "ssta.full_analyses", Value: per("statleak_ssta_full_analyses_total"), Unit: "count"},
		{Name: "ssta.incremental_updates", Value: updates, Unit: "count"},
		{Name: "ssta.nodes_retimed", Value: retimed, Unit: "count"},
		{Name: "ssta.nodes_per_update", Value: ratio(retimed, updates), Unit: "count"},
		{Name: "montecarlo.samples", Value: per("statleak_mc_samples_total"), Unit: "count"},
		{Name: "montecarlo.runs", Value: per("statleak_mc_runs_total"), Unit: "count"},
		{Name: "montecarlo.run_s", Value: per("statleak_mc_run_seconds_sum"), Unit: "s"},
		{Name: "server.retries", Value: per("statleak_job_retries_total"), Unit: "count"},
		{Name: "server.panicked", Value: per("statleak_jobs_panicked_total"), Unit: "count"},
		{Name: "cluster.routed", Value: per("statleak_cluster_jobs_routed_total"), Unit: "count"},
		{Name: "cluster.steals", Value: per("statleak_cluster_steals_total"), Unit: "count"},
		{Name: "cluster.failovers", Value: per("statleak_cluster_failovers_total"), Unit: "count"},
	}
}

// phaseLayers sums the opt phase spans (children of the traced
// optimizer calls) per traced pass.
func phaseLayers(stats []spanStat, passes int) []metric {
	if passes == 0 {
		return nil
	}
	var out []metric
	for _, ph := range []string{"sizing", "recovery", "polish"} {
		v := 0.0
		for _, s := range stats {
			if s.Name == "opt.phase."+ph {
				v = s.Total / float64(passes)
			}
		}
		out = append(out, metric{Name: "opt.phase." + ph + "_s", Value: v, Unit: "s",
			Note: "per pass, both optimizers, from Options.Progress (accurate to one round)"})
	}
	return out
}

// pickLayers orders the measured layer metrics as layerSpecs lists
// them (a metric nobody measured reads 0) and returns the rest
// separately.
func pickLayers(ms []metric) (listed, extra []metric) {
	byName := make(map[string]metric, len(ms))
	for _, m := range ms {
		byName[m.Name] = m
	}
	listedName := make(map[string]bool, len(layerSpecs))
	for _, ls := range layerSpecs {
		listedName[ls.name] = true
		m, ok := byName[ls.name]
		if !ok {
			m = metric{Name: ls.name, Note: "layer not run by this workload"}
		}
		m.Unit = ls.unit
		listed = append(listed, m)
	}
	for _, m := range ms {
		if !listedName[m.Name] {
			extra = append(extra, m)
		}
	}
	return listed, extra
}
