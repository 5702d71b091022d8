package main

import (
	"io/fs"
	"path/filepath"
	"strings"
	"time"

	horse "repro"
	"repro/internal/cm"
	"repro/internal/spec"
)

// experimentLayers reads the per-layer numbers of one traced single-run
// repetition off the phase timings and the counters the run's public
// results expose.
func experimentLayers(res *horse.Result, mgr *cm.Manager, c cost, pacing float64,
	build, teardown, outcome time.Duration) map[string]float64 {
	sim, sol := res.Sim, res.Solver
	l := map[string]float64{
		"horse.build_s":     build.Seconds(),
		"horse.setup_s":     res.SetupWall.Seconds(),
		"horse.engine_s":    sim.WallTotal.Seconds(),
		"horse.teardown_s":  teardown.Seconds(),
		"horse.outcome_s":   outcome.Seconds(),
		"horse.gc_pause_ms": float64(c.gcPause) / float64(time.Millisecond),
		"horse.num_gc":      float64(c.numGC),

		"sim.fti_wall_s":       sim.WallFTI.Seconds(),
		"sim.des_wall_s":       sim.WallDES.Seconds(),
		"sim.fti_virtual_s":    sim.VirtualFTI.Seconds(),
		"sim.events":           float64(sim.Events),
		"sim.control_posts":    float64(sim.ControlPosts),
		"sim.transitions":      float64(sim.Transitions),
		"sim.peak_queue_depth": float64(sim.PeakQueueDepth),
		"sim.late_events":      float64(sim.LateEvents),

		"cm.control_bytes":     float64(res.ControlBytes),
		"cm.control_writes":    float64(res.ControlWrites),
		"cm.route_installs":    float64(res.RouteInstalls),
		"cm.route_withdraws":   float64(res.RouteWithdraws),
		"cm.flow_mods_applied": float64(res.FlowModsApplied),
		"cm.packet_ins":        float64(res.PacketIns),
		"cm.stats_queries":     float64(res.StatsQueries),
		"cm.injections":        float64(res.Injections),
		"netmodel.reroutes":    float64(mgr.Net.Reroutes()),
		"netmodel.drops":       float64(res.Drops),

		"fluid.solves":              float64(sol.Solves),
		"fluid.components":          float64(sol.Components),
		"fluid.max_component_flows": float64(sol.MaxComponentFlows),
		"fluid.parallel_solves":     float64(sol.ParallelSolves),
	}
	if at, ok := res.ConvergedAt(0.95); ok {
		l["horse.converged_virtual_s"] = at.Seconds()
	}
	if sim.VirtualFTI > 0 {
		// 1.0 means FTI held real time; above it the engine fell behind.
		l["sim.fti_slowdown"] = sim.WallFTI.Seconds() * pacing / sim.VirtualFTI.Seconds()
	}
	if sol.Solves > 0 {
		l["fluid.flows_per_solve"] = float64(sol.Flows) / float64(sol.Solves)
		l["fluid.rounds_per_solve"] = float64(sol.Rounds) / float64(sol.Solves)
	}
	var sent, recv uint64
	for _, r := range mgr.G.Routers() {
		if sp := mgr.Speaker(r.ID); sp != nil {
			sent += sp.Stats.UpdatesSent.Load()
			recv += sp.Stats.UpdatesRecv.Load()
		}
	}
	l["bgp.updates_sent"], l["bgp.updates_recv"] = float64(sent), float64(recv)
	if recv > 0 {
		// The packing ratio: route changes applied per UPDATE received.
		l["bgp.routes_per_update"] = float64(res.RouteInstalls+res.RouteWithdraws) / float64(recv)
	}
	return l
}

// campaignLayers sums the per-run wall statistics the campaign persisted
// and sizes the artifacts it left under dir.
func campaignLayers(dir string, outcomes map[int]*spec.Outcome, events int, wall time.Duration) (map[string]float64, error) {
	l := map[string]float64{
		"campaign.runs_per_s":       float64(len(outcomes)) / wall.Seconds(),
		"campaign.events_published": float64(events),
	}
	var converged float64
	for _, oc := range outcomes {
		w := oc.Wall
		l["horse.setup_s"] += w.Setup.Duration().Seconds()
		l["horse.engine_s"] += w.Exec.Duration().Seconds()
		l["sim.transitions"] += float64(w.Transitions)
		l["cm.control_bytes"] += float64(w.ControlBytes)
		l["cm.route_installs"] += float64(w.RouteInstalls)
		l["cm.route_withdraws"] += float64(w.RouteWithdraws)
		l["cm.flow_mods_applied"] += float64(w.FlowModsApplied)
		l["cm.packet_ins"] += float64(w.PacketIns)
		l["cm.injections"] += float64(w.Injections)
		l["netmodel.drops"] += float64(w.Drops)
		l["fluid.solves"] += float64(w.Solves)
		converged += w.ConvergedAt.Duration().Seconds()
	}
	if len(outcomes) > 0 {
		l["horse.converged_virtual_s"] = converged / float64(len(outcomes))
	}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, ".pcapng") {
			l["capture.files"]++
			l["capture.bytes"] += float64(info.Size())
		} else {
			l["campaign.persist_bytes"] += float64(info.Size())
		}
		return nil
	})
	return l, err
}
