package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"asyncmediator/api"
	"asyncmediator/internal/async"
	"asyncmediator/internal/cluster"
	"asyncmediator/internal/core"
	"asyncmediator/internal/game"
	"asyncmediator/internal/mediator"
	"asyncmediator/internal/obs"
	"asyncmediator/internal/wire"
	"asyncmediator/pkg/client"
)

// Cluster mode: several mediatord daemons co-host one play, each running
// only its local players' protocol stacks over the hardened cluster
// transport (internal/cluster), all on the daemon's one cluster
// endpoint. The daemon that received the session (the coordinator)
// drives each peer through two idempotent calls on the typed SDK —
// POST /v1/cluster/join (open the players' transports on the endpoint,
// answer with its address) and POST /v1/cluster/start
// (full address table in, terminal player outcomes out) — then resolves
// the joint profile exactly like a single-process play and persists and
// announces it on its own store and event bus.

// clusterPlay is one co-hosted play pending or running on this daemon on
// behalf of a remote coordinator.
type clusterPlay struct {
	id      string
	params  core.Params
	types   []game.Type
	players []int
	nodes   map[int]*wire.Node
	started bool
	// trace collects this daemon's per-phase spans under the
	// coordinator's trace id; the start response ships it back so the
	// coordinator can stitch one cross-daemon timeline. collect owns the
	// per-process buffers feeding it, flushed when the start call ends.
	trace   *obs.PlayTrace
	collect *playCollector
	// lingering marks a play whose local players finished but whose
	// transports stay alive (resend buffers replaying to slower daemons)
	// until the coordinator's finish call or the linger timer releases
	// them.
	lingering bool
	expire    *time.Timer
	// result caches the gathered outcome while the play lingers: a
	// repeated start (a restarted coordinator retrying its keyed call)
	// answers it instead of conflicting.
	result *api.ClusterStartResponse
}

// ErrClusterUnknown marks a start (or drop) for a cluster id this
// daemon never joined or already finished.
var ErrClusterUnknown = errors.New("service: unknown cluster play")

// wireTimeout bounds each daemon's side of a wire play: a node still
// running at the deadline resolves its player through the will, like
// any undecided player. Twice it is how long a parked or lingering
// co-hosted play waits for its coordinator.
const wireTimeout = 60 * time.Second

// newClusterEndpoint builds the daemon's cluster endpoint: one listener
// on host (default 127.0.0.1) with an ephemeral port, bound on the first
// wire play. A wildcard host is bound but not advertised: peers are given
// the bound address as-is.
func newClusterEndpoint(host string, tlsCfg *cluster.TLS) *cluster.Endpoint {
	advertise := host
	switch host {
	case "":
		host, advertise = "127.0.0.1", ""
	case "0.0.0.0", "::":
		advertise = ""
	}
	return cluster.NewEndpoint(cluster.EndpointConfig{
		ListenAddr:    net.JoinHostPort(host, "0"),
		AdvertiseHost: advertise,
		TLS:           tlsCfg,
	})
}

// DropClusterConns severs every cluster transport connection this daemon
// holds — serving a play, coordinator-local or co-hosted, or at rest.
// Links reconnect and replay; the play must still terminate with the
// same outcome. It is the chaos hook behind POST /v1/cluster/drop
// (enabled by mediatord -chaos) and returns the connections closed.
func (s *Service) DropClusterConns() int { return s.clusterEP.DropConns() }

// buildClusterParams compiles and validates the play parameters a join
// request describes, mirroring session creation on the coordinator.
func buildClusterParams(spec Spec, seed int64) (core.Params, error) {
	spec.Peers = nil // assignment travels in Players, not the spec
	normalizeSpec(&spec)
	params, err := buildParams(spec)
	if err != nil {
		return core.Params{}, err
	}
	params.CoinSeed = seed
	return params, nil
}

// vetClusterTypes validates a cluster request's type profile against the
// compiled game.
func vetClusterTypes(g *game.Game, raw []int) ([]game.Type, error) {
	if len(raw) != g.N {
		return nil, fmt.Errorf("%w: %d types for %d players", ErrBadTypes, len(raw), g.N)
	}
	types := make([]game.Type, len(raw))
	for i, t := range raw {
		if t < 0 || t >= g.NumTypes[i] {
			return nil, fmt.Errorf("%w: type %d out of range for player %d", ErrBadTypes, t, i)
		}
		types[i] = game.Type(t)
	}
	return types, nil
}

// ClusterJoin accepts a coordinator's invitation: compile the play, open
// a transport per local player on the daemon's endpoint, and answer with
// the endpoint's address for each. The play is parked until ClusterStart
// supplies the full address table; a coordinator that never starts it is
// reaped after a grace period.
func (s *Service) ClusterJoin(req api.ClusterJoinRequest) (api.ClusterJoinResponse, error) {
	if req.ClusterID == "" {
		return api.ClusterJoinResponse{}, api.Errorf(api.CodeInvalidArgument, "cluster join needs a cluster_id")
	}
	if len(req.Players) == 0 {
		return api.ClusterJoinResponse{}, api.Errorf(api.CodeInvalidArgument, "cluster join names no players for this daemon")
	}
	params, err := buildClusterParams(req.Spec, req.Seed)
	if err != nil {
		return api.ClusterJoinResponse{}, err
	}
	types, err := vetClusterTypes(params.Game, req.Types)
	if err != nil {
		return api.ClusterJoinResponse{}, err
	}
	n := params.Game.N
	seen := make(map[int]bool, len(req.Players))
	for _, p := range req.Players {
		if p < 0 || p >= n || seen[p] {
			return api.ClusterJoinResponse{}, api.Errorf(api.CodeInvalidArgument, "bad player index %d for n=%d", p, n)
		}
		seen[p] = true
	}
	// Adopt the coordinator's trace id: spans recorded here ride the start
	// response back and stitch into the coordinator's timeline.
	var tr *obs.PlayTrace
	if req.TraceID != "" && !s.cfg.DisableTracing {
		tr = obs.NewPlayTrace(obs.TraceID(req.TraceID), 0)
	}
	collect := newCollector(tr)
	procs, err := core.BuildProcs(core.RunConfig{Params: params, Types: types, Wrap: collect.wrap()})
	if err != nil {
		return api.ClusterJoinResponse{}, err
	}

	play := &clusterPlay{
		id:      req.ClusterID,
		params:  params,
		types:   types,
		players: append([]int(nil), req.Players...),
		trace:   tr,
		collect: collect,
	}
	dupErr := fmt.Errorf("%w: cluster %s already joined", ErrConflict, req.ClusterID)
	play.nodes, err = s.openClusterNodes(req.ClusterID, req.Players, procs, req.Seed, req.TraceID)
	if errors.Is(err, cluster.ErrPlayerOpen) {
		err = dupErr // this cluster's players are already open here
	}
	if err != nil {
		return api.ClusterJoinResponse{}, err
	}

	s.clusterMu.Lock()
	if _, dup := s.clusterPlays[req.ClusterID]; dup {
		s.clusterMu.Unlock()
		stopNodes(play.nodes)
		return api.ClusterJoinResponse{}, dupErr
	}
	s.clusterPlays[req.ClusterID] = play
	// Reap a play whose coordinator never starts it, so its transports
	// and goroutines cannot leak.
	play.expire = time.AfterFunc(2*wireTimeout, func() { s.releaseClusterPlay(req.ClusterID) })
	s.clusterMu.Unlock()

	resp := api.ClusterJoinResponse{ClusterID: req.ClusterID, Addrs: make([]string, n)}
	for p, node := range play.nodes {
		resp.Addrs[p] = node.Addr()
	}
	return resp, nil
}

// openClusterNodes opens a wire node on the daemon's cluster endpoint for
// each listed player of one play. On error it stops the nodes it opened.
func (s *Service) openClusterNodes(clusterID string, players []int, procs []async.Process, seed int64, traceID string) (map[int]*wire.Node, error) {
	nodes := make(map[int]*wire.Node, len(players))
	for _, p := range players {
		node, err := wire.NewNode(wire.NodeConfig{
			Self:      async.PID(p),
			N:         len(procs),
			Endpoint:  s.clusterEP,
			ClusterID: clusterID,
			Proc:      procs[p],
			Seed:      seed,
			TraceID:   traceID,
		})
		if err != nil {
			stopNodes(nodes)
			return nil, fmt.Errorf("cluster node %d: %w", p, err)
		}
		nodes[p] = node
	}
	return nodes, nil
}

// stopNodes stops every node of a play.
func stopNodes(nodes map[int]*wire.Node) {
	for _, nd := range nodes {
		nd.Stop()
	}
}

// releaseClusterPlay tears down a parked play — joined-but-never-
// started or finished-and-lingering. A play whose start is in flight is
// left alone (its completion re-arms the release path). It reports
// whether a play was actually released.
func (s *Service) releaseClusterPlay(id string) bool {
	s.clusterMu.Lock()
	play, ok := s.clusterPlays[id]
	if ok && play.started && !play.lingering {
		ok = false
	}
	if ok {
		delete(s.clusterPlays, id)
		if play.expire != nil {
			play.expire.Stop()
		}
	}
	s.clusterMu.Unlock()
	if !ok {
		return false
	}
	stopNodes(play.nodes)
	return true
}

// ClusterFinish releases a lingering play's transports: the coordinator
// calls it once every daemon's outcomes are gathered. Releasing an
// unknown (already released) play is a successful no-op, so retries and
// replays are harmless; finishing a play whose start is still running
// is a lifecycle conflict.
func (s *Service) ClusterFinish(req api.ClusterFinishRequest) (api.ClusterFinishResponse, error) {
	if req.ClusterID == "" {
		return api.ClusterFinishResponse{}, api.Errorf(api.CodeInvalidArgument, "cluster finish needs a cluster_id")
	}
	s.clusterMu.Lock()
	play, ok := s.clusterPlays[req.ClusterID]
	midStart := ok && play.started && !play.lingering
	s.clusterMu.Unlock()
	if midStart {
		return api.ClusterFinishResponse{}, fmt.Errorf("%w: cluster %s is still running", ErrConflict, req.ClusterID)
	}
	released := s.releaseClusterPlay(req.ClusterID)
	return api.ClusterFinishResponse{ClusterID: req.ClusterID, Released: released}, nil
}

// ClusterStart completes the handshake: the full player->address table
// arrives, the parked nodes learn their peers, and the local players run
// to termination — on the farm's bounded worker pool, so co-hosted
// admission obeys the same backpressure as local plays (a full queue
// answers pool_saturated with the play still startable). The call
// blocks until the local players finish and carries their outcomes
// inline. A repeated start for a play whose outcome is already gathered
// (still lingering) answers the cached response, so a restarted
// coordinator's retry cannot conflict; a keyed retry of a running start
// waits on the idempotency layer's single-flight entry instead.
func (s *Service) ClusterStart(req api.ClusterStartRequest) (api.ClusterStartResponse, error) {
	s.clusterMu.Lock()
	play, ok := s.clusterPlays[req.ClusterID]
	if !ok {
		s.clusterMu.Unlock()
		return api.ClusterStartResponse{}, fmt.Errorf("%w %s", ErrClusterUnknown, req.ClusterID)
	}
	if play.started {
		if play.result != nil {
			resp := *play.result
			s.clusterMu.Unlock()
			return resp, nil
		}
		s.clusterMu.Unlock()
		return api.ClusterStartResponse{}, fmt.Errorf("%w: cluster %s already started", ErrConflict, req.ClusterID)
	}
	if len(req.Addrs) != play.params.Game.N {
		s.clusterMu.Unlock()
		return api.ClusterStartResponse{}, api.Errorf(api.CodeInvalidArgument,
			"address table has %d entries for n=%d", len(req.Addrs), play.params.Game.N)
	}
	play.started = true
	play.expire.Stop()
	s.clusterMu.Unlock()

	done := make(chan api.ClusterStartResponse, 1)
	err := s.pool.TrySubmit(func() {
		results := runClusterNodes(play.nodes, req.Addrs, wireTimeout)
		// Fold the per-process phase buffers into the trace before it
		// ships back. The transports linger past this point (relay
		// contract), so late deliveries can still tick the buffers —
		// harmless: they are relay traffic and the buffers' atomics keep
		// the overlap race-free.
		play.collect.flush()
		resp := api.ClusterStartResponse{ClusterID: req.ClusterID, Results: results, Trace: traceView(play.trace)}

		// The local players finished, but their transports must stay
		// alive: the resend buffers may still hold frames a slower
		// daemon's players need (wire.Node.Run's contract — honest
		// players relay until everyone is done). The coordinator releases
		// the play via /v1/cluster/finish once every daemon's outcomes
		// are gathered; the linger timer is the backstop for a
		// coordinator that died first.
		s.clusterMu.Lock()
		play.lingering = true
		play.result = &resp
		play.expire = time.AfterFunc(2*wireTimeout, func() { s.releaseClusterPlay(req.ClusterID) })
		s.clusterMu.Unlock()
		s.clusterHosted.Add(1)
		done <- resp
	})
	if err != nil {
		// Un-claim the start after a pool rejection: the play returns to
		// parked (expire re-armed) so a backed-off retry succeeds.
		s.clusterMu.Lock()
		if cur, ok := s.clusterPlays[req.ClusterID]; ok && cur == play {
			play.started = false
			play.expire = time.AfterFunc(2*wireTimeout, func() { s.releaseClusterPlay(req.ClusterID) })
		}
		s.clusterMu.Unlock()
		return api.ClusterStartResponse{}, err
	}
	return <-done, nil
}

// runClusterNodes runs a set of local nodes against a complete address
// table and collects each player's terminal state. Nodes are stopped by
// the caller once every co-hosted player of the play has finished.
func runClusterNodes(nodes map[int]*wire.Node, addrs []string, timeout time.Duration) []api.ClusterPlayerResult {
	players := make([]int, 0, len(nodes))
	for p := range nodes {
		players = append(players, p)
	}
	sort.Ints(players)

	var wg sync.WaitGroup
	errs := make(map[int]error, len(nodes))
	var errMu sync.Mutex
	for _, p := range players {
		node := nodes[p]
		node.SetAddrs(addrs)
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := node.Run(timeout)
			errMu.Lock()
			errs[p] = err
			errMu.Unlock()
		}()
	}
	wg.Wait()

	results := make([]api.ClusterPlayerResult, 0, len(players))
	for _, p := range players {
		node := nodes[p]
		r := node.Remote()
		st := node.Stats()
		res := api.ClusterPlayerResult{
			Index:     p,
			Halted:    r.Halted(),
			Sent:      st.Sent,
			Delivered: st.Delivered,
		}
		if err := errs[p]; err != nil {
			if errors.Is(err, wire.ErrTimeout) {
				res.TimedOut = true
			} else {
				res.Error = err.Error()
			}
		}
		if mv, ok := r.Move(); ok {
			if b, err := wire.EncodePayload(mv); err == nil {
				res.Move = b
			} else if res.Error == "" {
				res.Error = fmt.Sprintf("encode move: %v", err)
			}
		}
		if w, ok := r.Will(); ok {
			if b, err := wire.EncodePayload(w); err == nil {
				res.Will = b
			} else if res.Error == "" {
				res.Error = fmt.Sprintf("encode will: %v", err)
			}
		}
		results = append(results, res)
	}
	return results
}

// groupPeers buckets a spec's peer assignments by daemon address,
// preserving deterministic (sorted-address) order.
func groupPeers(peers []api.PeerSpec) (addrs []string, byAddr map[string][]int) {
	byAddr = make(map[string][]int)
	for _, p := range peers {
		byAddr[p.Addr] = append(byAddr[p.Addr], p.Index)
	}
	for a := range byAddr {
		sort.Ints(byAddr[a])
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	return addrs, byAddr
}

// peerError wraps a peer call's failure with the failing daemon's
// address — in the message and as a structured detail — so the error
// envelope a client eventually sees names the peer that failed.
func peerError(op, addr string, err error) error {
	var ce *client.Error
	if errors.As(err, &ce) {
		return api.Errorf(ce.Err.Code, "cluster %s %s: %s", op, addr, ce.Err.Message).WithDetail("peer", addr)
	}
	return api.Errorf(api.CodeInternal, "cluster %s %s: %v", op, addr, err).WithDetail("peer", addr)
}

// runCluster plays one wire-backend session on real nodes. The
// coordinator hosts the players no peer claimed, invites each peer daemon
// over the typed SDK (all joins in parallel, each bounded by the join
// timeout), distributes the merged address table, starts every peer
// (each start call returns that daemon's outcomes), and folds every
// daemon's terminal player states into one async.Result — which then
// resolves through mediator.ResolveMoves exactly like any other play.
// With an empty peers list every player runs here.
func (s *Service) runCluster(sess *Session, types []game.Type) (game.Profile, *async.Result, error) {
	params := sess.Params()
	n := params.Game.N
	clusterID := fmt.Sprintf("%s.%d", sess.ID, sess.Seed())
	peerAddrs, byAddr := groupPeers(sess.Spec.Peers)

	remote := make(map[int]bool)
	for _, players := range byAddr {
		for _, p := range players {
			remote[p] = true
		}
	}
	tr := sess.tracer()
	traceID := ""
	if tr != nil {
		traceID = string(tr.ID())
	}
	collect := newCollector(tr)
	procs, err := core.BuildProcs(core.RunConfig{Params: params, Types: types, Wrap: collect.wrap()})
	if err != nil {
		return nil, nil, err
	}

	// Host the unclaimed players locally.
	var unclaimed []int
	for p := 0; p < n; p++ {
		if !remote[p] {
			unclaimed = append(unclaimed, p)
		}
	}
	local, err := s.openClusterNodes(clusterID, unclaimed, procs, sess.Seed(), traceID)
	if err != nil {
		return nil, nil, fmt.Errorf("service: %w", err)
	}
	defer stopNodes(local)
	addrs := make([]string, n)
	for p, node := range local {
		addrs[p] = node.Addr()
	}

	// Invite every peer daemon in parallel; each answers with its
	// endpoint's address for each of its players. The fan-out costs
	// max(join), not the sum — one slow daemon cannot serialize the whole
	// handshake — and each join is separately bounded by the configured
	// join timeout. The calls ride the SDK's idempotent retry under keys
	// derived from the cluster id, so a blip on the control plane does not
	// fail the play and even a restarted coordinator's retry replays.
	ctx, cancel := context.WithTimeout(context.Background(), 2*wireTimeout+30*time.Second)
	defer cancel()
	clients := make(map[string]*client.Client, len(peerAddrs))
	for _, addr := range peerAddrs {
		cl, err := client.New(addr)
		if err != nil {
			return nil, nil, fmt.Errorf("service: cluster peer %s: %w", addr, err)
		}
		clients[addr] = cl
	}
	var joined []string
	defer func() {
		// The play is over: release every joined peer's lingering
		// transports now that all outcomes (or the failure) are in hand.
		// Best effort: a peer we cannot reach reaps itself on its linger
		// timer. A transport's close leaves its connections open on the
		// endpoints, so no link of the play sees a connection break, and
		// none redials, whichever daemon closes first.
		for _, addr := range joined {
			fctx, fcancel := context.WithTimeout(context.Background(), 15*time.Second)
			_, _ = clients[addr].ClusterFinish(fctx, api.ClusterFinishRequest{ClusterID: clusterID})
			fcancel()
		}
	}()
	joinStart := time.Now()
	joinErrs := make([]error, len(peerAddrs))
	joinAddrs := make([][]string, len(peerAddrs))
	var joinWG sync.WaitGroup
	for i, addr := range peerAddrs {
		i, addr := i, addr
		joinWG.Add(1)
		go func() {
			defer joinWG.Done()
			jctx, jcancel := context.WithTimeout(ctx, s.cfg.JoinTimeout)
			defer jcancel()
			resp, err := clients[addr].ClusterJoin(jctx, api.ClusterJoinRequest{
				ClusterID: clusterID,
				Spec:      sess.Spec,
				Types:     intTypes(types),
				Players:   byAddr[addr],
				Seed:      sess.Seed(),
				TraceID:   traceID,
			})
			if err != nil {
				joinErrs[i] = peerError("join", addr, err)
				return
			}
			if len(resp.Addrs) != n {
				joinErrs[i] = api.Errorf(api.CodeInternal, "cluster join %s: %d addrs for n=%d", addr, len(resp.Addrs), n).WithDetail("peer", addr)
				return
			}
			joinAddrs[i] = resp.Addrs
		}()
	}
	joinWG.Wait()
	if len(peerAddrs) > 0 {
		s.joinHist.Observe(time.Since(joinStart).Seconds())
	}
	// Successful joins are released on exit even when a sibling failed.
	for i, addr := range peerAddrs {
		if joinErrs[i] != nil {
			continue
		}
		joined = append(joined, addr)
	}
	for i, addr := range peerAddrs {
		if err := joinErrs[i]; err != nil {
			return nil, nil, fmt.Errorf("service: %w", err)
		}
		for _, p := range byAddr[addr] {
			if joinAddrs[i][p] == "" {
				return nil, nil, fmt.Errorf("service: cluster join %s: no address for player %d", addr, p)
			}
			addrs[p] = joinAddrs[i][p]
		}
	}

	// Start every daemon's players concurrently: each peer's start call
	// blocks until its players finish and answers their outcomes, local
	// nodes run in-process.
	type startReply struct {
		addr string
		resp api.ClusterStartResponse
		err  error
	}
	replies := make(chan startReply, len(peerAddrs))
	for _, addr := range peerAddrs {
		addr := addr
		go func() {
			resp, err := clients[addr].ClusterStart(ctx, api.ClusterStartRequest{ClusterID: clusterID, Addrs: addrs})
			if err != nil {
				err = peerError("start", addr, err)
			}
			replies <- startReply{addr: addr, resp: resp, err: err}
		}()
	}
	localResults := runClusterNodes(local, addrs, wireTimeout)
	// The coordinator's own players are done; fold their phase buffers in
	// before peer spans stitch on top. The local transports stay up (the
	// deferred stop) to relay for slower daemons — late deliveries after
	// this flush are uncounted relay traffic.
	collect.flush()

	res := &async.Result{
		Moves:  make(map[async.PID]any, n),
		Wills:  make(map[async.PID]any, n),
		Halted: make([]bool, n),
	}
	fold := func(from string, prs []api.ClusterPlayerResult) error {
		for _, pr := range prs {
			if pr.Index < 0 || pr.Index >= n {
				return fmt.Errorf("service: cluster %s returned player %d for n=%d", from, pr.Index, n)
			}
			if pr.Error != "" {
				return fmt.Errorf("service: cluster %s player %d: %s", from, pr.Index, pr.Error)
			}
			pid := async.PID(pr.Index)
			if len(pr.Move) > 0 {
				mv, err := wire.DecodePayload(pr.Move)
				if err != nil {
					return fmt.Errorf("service: cluster %s player %d move: %w", from, pr.Index, err)
				}
				res.Moves[pid] = mv
			}
			if len(pr.Will) > 0 {
				w, err := wire.DecodePayload(pr.Will)
				if err != nil {
					return fmt.Errorf("service: cluster %s player %d will: %w", from, pr.Index, err)
				}
				res.Wills[pid] = w
			}
			res.Halted[pr.Index] = pr.Halted
			if _, decided := res.Moves[pid]; !decided && !pr.Halted {
				res.Deadlocked = true
			}
			res.Stats.MessagesSent += int(pr.Sent)
			res.Stats.MessagesDelivered += int(pr.Delivered)
		}
		return nil
	}
	var firstErr error
	if err := fold("local", localResults); err != nil {
		firstErr = err
	}
	for range peerAddrs {
		r := <-replies
		if r.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("service: %w", r.err)
			}
			continue
		}
		// Stitch the peer's spans into the coordinator's timeline, rewriting
		// their origin to the peer's address.
		tr.Merge(obsSpans(r.resp.Trace, r.addr))
		if err := fold(r.addr, r.resp.Results); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}
	prof := mediator.ResolveMoves(params.Game, types, res, params.Approach)
	return prof, res, nil
}

// intTypes converts a game type profile to the contract's ints.
func intTypes(types []game.Type) []int {
	out := make([]int, len(types))
	for i, t := range types {
		out[i] = int(t)
	}
	return out
}
