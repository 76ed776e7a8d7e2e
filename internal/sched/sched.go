// Package sched is the fleet placement scheduler: given a session's
// (n, k, t) and the gossip-derived fleet view, it decides which daemon
// hosts which player. It is the control-plane half of the paper's
// threshold story — a mediator-free play only exists when enough
// machines actually co-host it: n > 4k+4t, 3k+3t, 3k+4t or 2k+3t for
// Theorems 4.1, 4.2, 4.4 and 4.5 (Abraham-Dolev-Geffner-Halpern, PODC
// 2019; tight per Abraham-Dolev-Halpern 2008 and Geffner-Halpern 2021).
// The caller passes that floor in (core.Variant.Bound owns the bound);
// the scheduler refuses specs under it outright and, per strategy,
// refuses or flags fleets whose failure domains cannot absorb t daemon
// losses.
//
// The package is pure: inputs are a Request plus a candidate list, the
// output a deterministic Placement. Equal-load candidates tie-break on
// their sorted URLs, so every daemon planning the same play from the
// same view computes the same assignment.
package sched

import (
	"errors"
	"fmt"
	"sort"

	"asyncmediator/api"
)

// The placement strategies.
const (
	// StrategySpread (the default) spreads players across all healthy
	// daemons, least-loaded first. When the worst t daemons still hold
	// more than the t-player fault budget it places anyway and reports
	// the shortfall in Placement.Degraded.
	StrategySpread = "spread"
	// StrategyPack concentrates every free player on the single
	// least-loaded daemon (the coordinator wins ties): fewest failure
	// domains, cheapest transport.
	StrategyPack = "pack"
	// StrategyStrict is spread that refuses (ErrUnderFloor) instead of
	// degrading: the placement must keep any t daemon losses within the
	// t-player fault budget.
	StrategyStrict = "strict"
)

// ErrInfeasible marks a spec no fleet could place: n under its theorem
// variant's floor, or a contradictory fixed-peer list.
var ErrInfeasible = errors.New("sched: placement infeasible")

// ErrUnderFloor marks a fleet currently too small or too unhealthy for
// the requested placement; retrying after the fleet recovers may succeed.
var ErrUnderFloor = errors.New("sched: fleet under placement floor")

// Daemon is one placement candidate distilled from the fleet view.
type Daemon struct {
	// URL is the daemon's advertised API base URL.
	URL string
	// Self marks the coordinator (the daemon running the scheduler).
	Self bool
	// State is the gossip liveness judgement; only healthy daemons (and
	// Self, which is answering this very request) are candidates.
	State api.FleetPeerState
	// Shedding daemons are skipped: they asked for no new load.
	Shedding bool
	// QueueDepth and LiveSessions are the gossiped load signals.
	QueueDepth   int
	LiveSessions int
}

// Request asks for one placement.
type Request struct {
	// N, K, T are the play's parameters.
	N, K, T int
	// Floor is the least N the play's theorem variant admits,
	// core.Variant.Bound(K, T); N < Floor is refused as ErrInfeasible.
	Floor int
	// Strategy is one of the Strategy constants ("" = spread).
	Strategy string
	// Fixed pins players to daemons (a caller-supplied partial peers
	// list); the scheduler only places the remaining indices.
	Fixed []api.PeerSpec
	// MinDaemons refuses placements using fewer distinct healthy daemons
	// than this (0: no constraint). Callers typically pass the fleet's
	// configured floor when they want hard failure-domain isolation.
	MinDaemons int
}

// Placement is an alias of the wire DTO: the scheduler's output IS the
// contract type, so the service and the plan endpoint serve it as-is.
type Placement = api.PlacementView

// Candidates distills a fleet view into the scheduler's candidate list.
func Candidates(v api.FleetView) []Daemon {
	out := make([]Daemon, 0, len(v.Peers))
	for _, p := range v.Peers {
		if p.Addr == "" {
			continue
		}
		out = append(out, Daemon{
			URL:          p.Addr,
			Self:         p.Self,
			State:        p.State,
			Shedding:     p.Shedding,
			QueueDepth:   p.QueueDepth,
			LiveSessions: p.LiveSessions,
		})
	}
	return out
}

// Place computes the assignment of req's N players onto the candidate
// daemons. With no usable candidates (empty list, or everything but the
// coordinator suspect) the whole play lands on the coordinator — a valid
// single-daemon degenerate, not an error.
func Place(req Request, daemons []Daemon) (Placement, error) {
	strategy := req.Strategy
	if strategy == "" {
		strategy = StrategySpread
	}
	switch strategy {
	case StrategySpread, StrategyPack, StrategyStrict:
	default:
		return Placement{}, fmt.Errorf("%w: unknown strategy %q", ErrInfeasible, req.Strategy)
	}
	if req.N <= 0 || req.K < 0 || req.T < 0 {
		return Placement{}, fmt.Errorf("%w: n=%d k=%d t=%d out of range", ErrInfeasible, req.N, req.K, req.T)
	}
	if req.N < req.Floor {
		return Placement{}, fmt.Errorf("%w: n=%d is under the variant's floor (need n >= %d for k=%d, t=%d)",
			ErrInfeasible, req.N, req.Floor, req.K, req.T)
	}

	fixed := make(map[int]string, len(req.Fixed))
	for _, p := range req.Fixed {
		if p.Index < 0 || p.Index >= req.N {
			return Placement{}, fmt.Errorf("%w: fixed peer index %d out of range [0,%d)", ErrInfeasible, p.Index, req.N)
		}
		if p.Addr == "" {
			return Placement{}, fmt.Errorf("%w: fixed peer %d has an empty address", ErrInfeasible, p.Index)
		}
		if prev, dup := fixed[p.Index]; dup && prev != p.Addr {
			return Placement{}, fmt.Errorf("%w: player %d fixed to both %s and %s", ErrInfeasible, p.Index, prev, p.Addr)
		}
		fixed[p.Index] = p.Addr
	}

	cands := usable(daemons)
	if req.MinDaemons > 0 && len(cands) < req.MinDaemons {
		return Placement{}, fmt.Errorf("%w: %d healthy daemons, placement requires %d",
			ErrUnderFloor, len(cands), req.MinDaemons)
	}

	// Seed per-daemon loads from the gossiped signals; fixed players
	// count against their daemon whether or not it is a candidate.
	byURL := make(map[string]*hostLoad, len(cands))
	// order holds the daemons eligible for free players; daemons known
	// only from the fixed list are tracked but never receive more.
	order := make([]*hostLoad, 0, len(cands))
	host := func(url string, self bool, base int, candidate bool) *hostLoad {
		h, ok := byURL[url]
		if !ok {
			h = &hostLoad{url: url, self: self, base: base}
			byURL[url] = h
		}
		if candidate && !h.candidate {
			h.candidate = true
			order = append(order, h)
		}
		return h
	}
	coordinated := false
	for _, d := range cands {
		host(d.URL, d.Self, d.QueueDepth+d.LiveSessions, true)
		coordinated = coordinated || d.Self
	}
	if !coordinated {
		// No fleet view (or the coordinator is not in it): the
		// coordinator still exists — it is executing this request.
		host("", true, 0, true)
	}
	assign := make(map[int]*hostLoad, req.N)
	for idx, addr := range fixed {
		assign[idx] = host(addr, false, 0, false)
	}

	// Deterministic candidate order: load ascending, coordinator first
	// among equals, then sorted URL.
	pick := func() *hostLoad {
		best := order[0]
		for _, h := range order[1:] {
			if h.less(best) {
				best = h
			}
		}
		return best
	}
	packTarget := pick() // pack fills one daemon; chosen before placing
	for idx := 0; idx < req.N; idx++ {
		if _, ok := assign[idx]; ok {
			continue
		}
		h := packTarget
		if strategy != StrategyPack {
			h = pick()
		}
		assign[idx] = h
		h.placed++
	}

	pl := Placement{Strategy: strategy, Floor: req.Floor}
	used := make([]*hostLoad, 0, len(byURL))
	for _, h := range byURL {
		if h.players(assign) != nil {
			used = append(used, h)
		}
	}
	sort.Slice(used, func(i, j int) bool {
		if used[i].self != used[j].self {
			return used[i].self
		}
		return used[i].url < used[j].url
	})
	for _, h := range used {
		players := h.players(assign)
		pl.Assignments = append(pl.Assignments, api.PlacementAssignment{Addr: h.url, Self: h.self, Players: players})
		if !h.self {
			for _, idx := range players {
				pl.Peers = append(pl.Peers, api.PeerSpec{Index: idx, Addr: h.url})
			}
		}
	}
	sort.Slice(pl.Peers, func(i, j int) bool { return pl.Peers[i].Index < pl.Peers[j].Index })
	pl.Daemons = len(used)

	if msg := faultBudgetShortfall(pl.Assignments, req.T); msg != "" {
		if strategy == StrategyStrict {
			return Placement{}, fmt.Errorf("%w: %s", ErrUnderFloor, msg)
		}
		if strategy == StrategySpread {
			pl.Degraded = msg
		}
	}
	return pl, nil
}

// UsableCount reports how many daemons a placement over these candidates
// could draw from: the coordinator (counted even when absent from the
// view — it is executing the request) plus every healthy non-shedding
// peer. The plan endpoint reports it alongside the dry-run decision.
func UsableCount(daemons []Daemon) int {
	u := usable(daemons)
	for _, d := range u {
		if d.Self {
			return len(u)
		}
	}
	return len(u) + 1
}

// usable filters the candidate list to daemons that may take load: the
// coordinator always (it is serving this request), peers only while the
// gossip judges them healthy and they are not shedding.
func usable(daemons []Daemon) []Daemon {
	out := make([]Daemon, 0, len(daemons))
	for _, d := range daemons {
		if d.Self {
			out = append(out, d)
			continue
		}
		if d.State == api.FleetPeerHealthy && !d.Shedding && d.URL != "" {
			out = append(out, d)
		}
	}
	return out
}

// faultBudgetShortfall reports whether losing the worst t daemons would
// take more than t players with them — the spread invariant. Empty when
// the budget holds (or t is zero).
func faultBudgetShortfall(assignments []api.PlacementAssignment, t int) string {
	if t <= 0 {
		return ""
	}
	loads := make([]int, 0, len(assignments))
	for _, a := range assignments {
		loads = append(loads, len(a.Players))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(loads)))
	worst := 0
	for i := 0; i < t && i < len(loads); i++ {
		worst += loads[i]
	}
	if worst > t {
		return fmt.Sprintf("losing the worst %d daemon(s) loses %d players, over the t=%d fault budget", t, worst, t)
	}
	return ""
}

// hostLoad tracks one daemon's load during assignment.
type hostLoad struct {
	url       string
	self      bool
	candidate bool // eligible for free players (healthy or coordinator)
	base      int  // gossiped QueueDepth + LiveSessions
	placed    int  // players assigned by this placement
}

func (h *hostLoad) less(o *hostLoad) bool {
	a, b := h.base+h.placed, o.base+o.placed
	if a != b {
		return a < b
	}
	// At equal effective load, spread this play's own players evenly
	// before falling back to the deterministic coordinator/URL order.
	if h.placed != o.placed {
		return h.placed < o.placed
	}
	if h.self != o.self {
		return h.self
	}
	return h.url < o.url
}

// players collects the indices assigned to h, ascending.
func (h *hostLoad) players(assign map[int]*hostLoad) []int {
	var out []int
	for idx, to := range assign {
		if to == h {
			out = append(out, idx)
		}
	}
	sort.Ints(out)
	return out
}
