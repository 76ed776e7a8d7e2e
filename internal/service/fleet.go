package service

import (
	"fmt"
	"sort"

	"asyncmediator/api"
	"asyncmediator/internal/fleet"
	"asyncmediator/internal/obs"
)

// This file wires the fleet telemetry plane (internal/fleet) into the
// farm: the daemon joins the gossip mesh at boot, samples its own load
// into the health summaries it gossips, republishes the rule engine's
// alerts on the event bus (kind "fleet", states "alert.<rule>" /
// "clear.<rule>"), and answers GET /v1/cluster/fleet from the mesh's
// eventually consistent view.

// fleetState is the Service's fleet-plane runtime.
type fleetState struct {
	mesh *fleet.Mesh

	// alerts counts fired alerts per rule.
	alerts *obs.CounterVec
}

// startFleet joins the gossip mesh when the config asks for one. Called
// from New after the pool and registries exist (the health source reads
// them) but before the readiness gate opens.
func (s *Service) startFleet() error {
	if s.cfg.FleetListen == "" {
		return nil
	}
	if len(s.cfg.FleetPeers) < 2 {
		return fmt.Errorf("service: fleet mode needs the full gossip address table (-fleet-peers), self included")
	}
	// Indices derive from the sorted table, so every daemon given the
	// same -fleet-peers list agrees on the numbering with no registry.
	table := append([]string(nil), s.cfg.FleetPeers...)
	sort.Strings(table)
	self := -1
	for i, a := range table {
		if a == s.cfg.FleetListen {
			self = i
			break
		}
	}
	if self < 0 {
		return fmt.Errorf("service: fleet listen address %q is not in the peer table %v", s.cfg.FleetListen, table)
	}
	s.fleet = &fleetState{alerts: s.obsReg.CounterVec("mediatord_fleet_alerts_total",
		"Fleet alerts fired since boot, by rule.", "rule")}
	mesh, err := fleet.New(fleet.Config{
		Self:           self,
		N:              len(table),
		ListenAddr:     s.cfg.FleetListen,
		AdvertiseURL:   s.cfg.AdvertiseURL,
		Interval:       s.cfg.GossipInterval,
		Floor:          s.cfg.FleetFloor,
		QueueWatermark: s.cfg.ReadyWatermark,
		Secret:         s.cfg.FleetSecret,
		TLS:            s.clusterTLS,
		Source:         s.fleetHealth,
		OnAlert:        s.publishFleetAlert,
	})
	if err != nil {
		return err
	}
	mesh.SetAddrs(table)
	s.fleet.mesh = mesh
	s.registerFleetMetrics(mesh)
	return nil
}

// registerFleetMetrics exposes the mesh's eventually consistent view:
// aggregated peer-state counts, the mesh's own counters, and per-peer
// liveness and load.
func (s *Service) registerFleetMetrics(mesh *fleet.Mesh) {
	r := s.obsReg
	r.GaugeVecFunc("mediatord_fleet_peers", "Fleet daemons per gossip liveness state (self included).", "state",
		func() map[string]float64 {
			v := mesh.View()
			return map[string]float64{
				"healthy": float64(v.Healthy), "suspect": float64(v.Suspect),
				"expired": float64(v.Expired), "unknown": float64(v.Unknown),
			}
		})
	r.GaugeFunc("mediatord_fleet_size", "Configured fleet size (gossip address table length).",
		func() float64 { return float64(mesh.View().N) })
	r.GaugeFunc("mediatord_fleet_floor", "Configured healthy-daemon floor; 0 when unset.",
		func() float64 { return float64(mesh.View().Floor) })
	r.CounterFunc("mediatord_fleet_gossip_rounds_total", "Gossip rounds this daemon has run.",
		func() float64 { return float64(mesh.View().Rounds) })
	r.CounterFunc("mediatord_fleet_entries_merged_total", "Health entries merged from peers' gossip digests.",
		func() float64 { return float64(mesh.View().EntriesMerged) })
	r.CounterFunc("mediatord_fleet_sig_rejected_total", "Gossip digests rejected for a missing or bad signature.",
		func() float64 { return float64(mesh.View().SigRejected) })
	perPeer := func(get func(fleet.PeerView) float64) func() map[string]float64 {
		return func() map[string]float64 {
			out := make(map[string]float64)
			for _, p := range mesh.View().Peers {
				label := p.Addr
				if label == "" {
					label = fmt.Sprintf("peer-%d", p.Index)
				}
				out[label] = get(p)
			}
			return out
		}
	}
	r.GaugeVecFunc("mediatord_peer_up", "Peer liveness as judged by gossip (1 healthy, 0 otherwise).", "peer",
		perPeer(func(p fleet.PeerView) float64 { return boolGauge(p.State == fleet.StateHealthy) }))
	r.GaugeVecFunc("mediatord_peer_queue_depth", "Each peer's gossiped worker-queue depth.", "peer",
		perPeer(func(p fleet.PeerView) float64 { return float64(p.QueueDepth) }))
}

// fleetHealth samples this daemon's own load — the summary gossiped to
// every peer each interval. Called from the mesh's tick goroutine.
func (s *Service) fleetHealth() fleet.Health {
	depth := s.pool.QueueLen()
	cl := s.clusterLinkStats()
	h := fleet.Health{
		QueueDepth:   depth,
		Shedding:     s.cfg.ReadyWatermark > 0 && depth >= s.cfg.ReadyWatermark,
		LiveSessions: s.reg.Len(),
		Redials:      cl.Redials,
		Resends:      cl.Resent,
		DialErrors:   cl.DialErrors,
	}
	if s.st != nil {
		h.StoreKeys = s.st.Metrics().Keys
	}
	h.PhaseP99MS = s.phaseHist.Quantile(0.99) * 1000
	return h
}

// publishFleetAlert republishes one rule transition on the event bus so
// SSE consumers and `mediatorctl events tail` see fleet degradation as
// it starts: kind "fleet", state "alert.<rule>" (or "clear.<rule>"),
// id = the subject peer's URL ("fleet" for fleet-wide rules).
func (s *Service) publishFleetAlert(a fleet.Alert) {
	if s.fleet != nil && !a.Cleared {
		s.fleet.alerts.With(a.Rule).Inc()
	}
	state := "alert." + a.Rule
	if a.Cleared {
		state = "clear." + a.Rule
	}
	id := a.Peer
	if id == "" {
		id = "fleet"
	}
	s.publish(api.KindFleet, id, State(state), api.FleetAlert{
		Rule:    a.Rule,
		Peer:    a.Peer,
		Index:   a.Index,
		Message: a.Message,
		Value:   a.Value,
		Cleared: a.Cleared,
	})
}

// FleetView maps the mesh's view to the wire DTO; ok is false when this
// daemon runs without a fleet plane.
func (s *Service) FleetView() (api.FleetView, bool) {
	if s.fleet == nil || s.fleet.mesh == nil {
		return api.FleetView{}, false
	}
	v := s.fleet.mesh.View()
	out := api.FleetView{
		Self:             v.Self,
		Size:             v.N,
		Floor:            v.Floor,
		GossipIntervalMS: v.Interval.Milliseconds(),
		SuspectAfterMS:   v.SuspectAfter.Milliseconds(),
		ExpireAfterMS:    v.ExpireAfter.Milliseconds(),
		Healthy:          v.Healthy,
		Suspect:          v.Suspect,
		Expired:          v.Expired,
		Unknown:          v.Unknown,
		Peers:            make([]api.FleetPeer, len(v.Peers)),
		GenVector:        v.GenVector,
		GossipRounds:     v.Rounds,
		EntriesMerged:    v.EntriesMerged,
		SigRejected:      v.SigRejected,
	}
	for i, p := range v.Peers {
		out.Peers[i] = api.FleetPeer{
			Index:        p.Index,
			Addr:         p.Addr,
			Self:         p.Self,
			State:        api.FleetPeerState(p.State),
			Gen:          p.Gen,
			SilentForMS:  p.SilentForMS,
			QueueDepth:   p.QueueDepth,
			Shedding:     p.Shedding,
			LiveSessions: p.LiveSessions,
			StoreKeys:    p.StoreKeys,
			Redials:      p.Redials,
			Resends:      p.Resends,
			DialErrors:   p.DialErrors,
			PhaseP99MS:   p.PhaseP99MS,
		}
	}
	if len(v.Alerts) > 0 {
		out.Alerts = make([]api.FleetAlert, len(v.Alerts))
		for i, a := range v.Alerts {
			out.Alerts[i] = api.FleetAlert{
				Rule:    a.Rule,
				Peer:    a.Peer,
				Index:   a.Index,
				Message: a.Message,
				Value:   a.Value,
				Cleared: a.Cleared,
			}
		}
	}
	return out, true
}

// DropFleetConns severs the gossip mesh's live connections (chaos hook,
// folded into POST /v1/cluster/drop). Returns 0 without a fleet plane.
func (s *Service) DropFleetConns() int {
	if s.fleet == nil || s.fleet.mesh == nil {
		return 0
	}
	return s.fleet.mesh.DropConns()
}
