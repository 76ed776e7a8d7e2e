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
// only the players it hosts over the hardened cluster transport
// (internal/cluster), all on the daemon's one cluster endpoint. Every
// daemon hosts its players the same way: openHosted builds only those
// players' processes and opens their nodes, and hostedPlay.run plays them
// against the full address table and reports their outcomes.
// The daemon that received the session (the coordinator) hosts the
// players no peer claimed and drives each peer through three idempotent
// calls on the typed SDK — POST /v1/cluster/join (open the peer's
// players, answer with its endpoint's address), POST /v1/cluster/start
// (full address table in, terminal player outcomes out) and POST
// /v1/cluster/finish (release the peer's lingering transports) — then
// resolves the joint profile exactly like a single-process play and
// persists and announces it on its own store and event bus.

// hostedPlay is the players one daemon hosts in one wire play of n
// players: a node per hosted player on the daemon's cluster endpoint,
// and the collector that folds their phase counts into the play's trace.
type hostedPlay struct {
	n       int
	nodes   map[int]*wire.Node
	collect *playCollector
}

// clusterPlay is the bookkeeping of a play this daemon co-hosts for a
// remote coordinator, from its join to its finish. A coordinator holds
// the players it hosts for its own session itself, never here.
type clusterPlay struct {
	*hostedPlay
	started bool
	// trace collects this daemon's per-phase spans under the
	// coordinator's trace id; the start response ships it back so the
	// coordinator can stitch one cross-daemon timeline.
	trace *obs.PlayTrace
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

// joinTimeout bounds each cluster join call a coordinator makes against
// a peer daemon. Joins fan out in parallel, so it also bounds the whole
// join phase: one slow peer cannot stall the play for the full wire
// timeout.
const joinTimeout = 30 * time.Second

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
// its players here (openHosted), and answer with the endpoint's address
// for each. The play is parked until ClusterStart supplies the full
// address table; a coordinator that never starts it is reaped after a
// grace period.
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
	// Adopt the coordinator's trace id: spans recorded here ride the start
	// response back and stitch into the coordinator's timeline.
	var tr *obs.PlayTrace
	if req.TraceID != "" && !s.cfg.DisableTracing {
		tr = obs.NewPlayTrace(obs.TraceID(req.TraceID))
	}
	hosted, err := s.openHosted(req.ClusterID, params, types, req.Players, req.Seed, tr)
	dupErr := fmt.Errorf("%w: cluster %s already joined", ErrConflict, req.ClusterID)
	if errors.Is(err, cluster.ErrPlayerOpen) {
		err = dupErr // this cluster's players are already open here
	}
	if err != nil {
		return api.ClusterJoinResponse{}, err
	}
	play := &clusterPlay{hostedPlay: hosted, trace: tr}

	s.clusterMu.Lock()
	if _, dup := s.clusterPlays[req.ClusterID]; dup {
		s.clusterMu.Unlock()
		hosted.stop()
		return api.ClusterJoinResponse{}, dupErr
	}
	s.clusterPlays[req.ClusterID] = play
	// Reap a play whose coordinator never starts it, so its transports
	// and goroutines cannot leak.
	play.expire = time.AfterFunc(2*wireTimeout, func() { s.releaseClusterPlay(req.ClusterID) })
	s.clusterMu.Unlock()

	return api.ClusterJoinResponse{ClusterID: req.ClusterID, Addrs: hosted.addrs()}, nil
}

// openHosted opens the players this daemon hosts in one play: it checks
// their indices, builds each one's process (and no other player's)
// wrapped by a collector feeding tr, and opens a node for each on the
// daemon's cluster endpoint. On error it stops the nodes it opened.
func (s *Service) openHosted(clusterID string, params core.Params, types []game.Type, players []int, seed int64, tr *obs.PlayTrace) (*hostedPlay, error) {
	n := params.Game.N
	seen := make([]bool, n)
	for _, p := range players {
		if p < 0 || p >= n || seen[p] {
			return nil, api.Errorf(api.CodeInvalidArgument, "bad player index %d for n=%d", p, n)
		}
		seen[p] = true
	}
	h := &hostedPlay{n: n, nodes: make(map[int]*wire.Node, len(players)), collect: newCollector(tr)}
	wrap := h.collect.wrap()
	for _, p := range players {
		pl, err := core.NewPlayer(params, p, types[p])
		if err != nil {
			h.stop()
			return nil, err
		}
		var proc async.Process = pl
		if wrap != nil {
			proc = wrap(p, pl)
		}
		node, err := wire.NewNode(wire.NodeConfig{
			Self:      async.PID(p),
			N:         n,
			Endpoint:  s.clusterEP,
			ClusterID: clusterID,
			Proc:      proc,
			Seed:      seed,
		})
		if err != nil {
			h.stop()
			return nil, fmt.Errorf("cluster node %d: %w", p, err)
		}
		h.nodes[p] = node
	}
	return h, nil
}

// addrs returns the play's address table with the endpoint's address for
// each hosted player and "" for every other.
func (h *hostedPlay) addrs() []string {
	out := make([]string, h.n)
	for p, node := range h.nodes {
		out[p] = node.Addr()
	}
	return out
}

// stop stops every hosted node.
func (h *hostedPlay) stop() {
	for _, nd := range h.nodes {
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
	play.stop()
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
// to termination on the calling goroutine, as runCluster runs the
// coordinator's own. They take no pool worker: a coordinator that names
// itself as a peer starts itself while its session holds a worker, and a
// peer's co-hosted plays are already bounded by the workers its
// coordinators' sessions hold. The call blocks until the local players
// finish and carries their outcomes inline. A repeated start for a play
// whose outcome is already gathered (still lingering) answers the cached
// response, so a restarted coordinator's retry cannot conflict; a keyed
// retry of a running start waits on the idempotency layer's
// single-flight entry instead. Once shutdown has begun a start is
// refused, and Close waits for the starts already running.
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
	if len(req.Addrs) != play.n {
		s.clusterMu.Unlock()
		return api.ClusterStartResponse{}, api.Errorf(api.CodeInvalidArgument,
			"address table has %d entries for n=%d", len(req.Addrs), play.n)
	}
	select {
	case <-s.stopc:
		s.clusterMu.Unlock()
		return api.ClusterStartResponse{}, api.Errorf(api.CodeNotReady, "draining for shutdown")
	default:
	}
	play.started = true
	play.expire.Stop()
	s.clusterStarts.Add(1) // under clusterMu, which Close takes after stopc closes
	s.clusterMu.Unlock()
	defer s.clusterStarts.Done()

	resp := api.ClusterStartResponse{ClusterID: req.ClusterID, Results: play.run(req.Addrs), Trace: play.trace.View()}

	// The local players finished, but their transports must stay alive:
	// the resend buffers may still hold frames a slower daemon's players
	// need (wire.Node.Run's contract — honest players relay until
	// everyone is done). The coordinator releases the play via
	// /v1/cluster/finish once every daemon's outcomes are gathered; the
	// linger timer is the backstop for a coordinator that died first.
	s.clusterMu.Lock()
	play.lingering = true
	play.result = &resp
	play.expire = time.AfterFunc(2*wireTimeout, func() { s.releaseClusterPlay(req.ClusterID) })
	s.clusterMu.Unlock()
	s.clusterHosted.Add(1)
	return resp, nil
}

// run plays the hosted nodes against the full address table until each
// player terminates or the wire timeout passes, folds their phase buffers
// into the trace, and reports each player's terminal state in index
// order. The nodes stay open, relaying for slower daemons, until stop:
// deliveries after the fold are relay traffic, uncounted, and the
// buffers' atomics keep the overlap race-free.
func (h *hostedPlay) run(addrs []string) []api.ClusterPlayerResult {
	players := make([]int, 0, len(h.nodes))
	for p := range h.nodes {
		players = append(players, p)
	}
	sort.Ints(players)

	var wg sync.WaitGroup
	errs := make([]error, len(players))
	for i, p := range players {
		node := h.nodes[p]
		node.SetAddrs(addrs)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[i] = node.Run(wireTimeout)
		}()
	}
	wg.Wait()
	h.collect.flush()

	results := make([]api.ClusterPlayerResult, 0, len(players))
	for i, p := range players {
		node := h.nodes[p]
		r := node.Remote()
		st := node.Stats()
		res := api.ClusterPlayerResult{
			Index:     p,
			Halted:    r.Halted(),
			Sent:      st.Sent,
			Delivered: st.Delivered,
		}
		if err := errs[i]; err != nil {
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
// coordinator hosts the players no peer claimed as a peer hosts its own
// (openHosted, then run), invites each peer daemon over the typed SDK
// (all joins in parallel, each bounded by the join timeout), distributes
// the merged address table, starts every peer (each start call returns
// that daemon's outcomes), and folds every daemon's terminal player
// states into one async.Result — which then resolves through
// mediator.ResolveMoves exactly like any other play. With an empty peers
// list every player runs here.
func (s *Service) runCluster(sess *Session, types []game.Type) (game.Profile, *async.Result, error) {
	params := sess.Params()
	n := params.Game.N
	clusterID := fmt.Sprintf("%s.%d", sess.ID, sess.Seed())
	peerAddrs, byAddr := groupPeers(sess.Spec.Peers)

	claimed := make([]bool, n)
	for _, p := range sess.Spec.Peers {
		claimed[p.Index] = true
	}
	var unclaimed []int
	for p, c := range claimed {
		if !c {
			unclaimed = append(unclaimed, p)
		}
	}
	// The coordinator's players record straight into the session's trace,
	// as "local". Their play is held here, not in clusterPlays: a spec may
	// name this daemon as a peer too, and its join must not collide.
	tr := sess.tracer()
	traceID := string(tr.ID())
	local, err := s.openHosted(clusterID, params, types, unclaimed, sess.Seed(), tr)
	if err != nil {
		return nil, nil, fmt.Errorf("service: %w", err)
	}
	defer local.stop()
	addrs := local.addrs()

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
		joinWG.Add(1)
		go func() {
			defer joinWG.Done()
			jctx, jcancel := context.WithTimeout(ctx, joinTimeout)
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

	// Start every peer and run the coordinator's players concurrently:
	// each peer's start call blocks until its players finish and answers
	// their outcomes; the coordinator's run inline, on this worker.
	type startReply struct {
		addr string
		resp api.ClusterStartResponse
		err  error
	}
	replies := make(chan startReply, len(peerAddrs)+1)
	for _, addr := range peerAddrs {
		go func() {
			resp, err := clients[addr].ClusterStart(ctx, api.ClusterStartRequest{ClusterID: clusterID, Addrs: addrs})
			if err != nil {
				err = peerError("start", addr, err)
			}
			replies <- startReply{addr: addr, resp: resp, err: err}
		}()
	}
	replies <- startReply{addr: originLocal, resp: api.ClusterStartResponse{Results: local.run(addrs)}}

	res := &async.Result{
		Moves:  make(map[async.PID]any, n),
		Wills:  make(map[async.PID]any, n),
		Halted: make([]bool, n),
	}
	var firstErr error
	for range len(peerAddrs) + 1 {
		r := <-replies
		if r.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("service: %w", r.err)
			}
			continue
		}
		if r.addr != originLocal {
			// Stitch the peer's spans into the coordinator's timeline,
			// rewriting their origin to the peer's address.
			tr.Merge(r.resp.Trace, r.addr)
		}
		if err := foldResults(res, r.addr, r.resp.Results); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}
	prof := mediator.ResolveMoves(params.Game, types, res, params.Approach)
	return prof, res, nil
}

// foldResults decodes one daemon's player outcomes into res; from names
// the daemon in errors.
func foldResults(res *async.Result, from string, prs []api.ClusterPlayerResult) error {
	n := len(res.Halted)
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

// intTypes converts a game type profile to the contract's ints.
func intTypes(types []game.Type) []int {
	out := make([]int, len(types))
	for i, t := range types {
		out[i] = int(t)
	}
	return out
}
