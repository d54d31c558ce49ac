package serve

import "sort"

// StatusReport is the daemon's /statusz application section: the live
// session set and every backend world with its generation and
// membership state — the operator view of "what is this daemon doing
// right now" that process-exit aggregates cannot give.
type StatusReport struct {
	Draining      bool            `json:"draining"`
	Sessions      int             `json:"sessions"`
	SessionsTotal uint64          `json:"sessions_total"`
	Requests      uint64          `json:"requests_total"`
	Responses     uint64          `json:"responses_total"`
	ProxyOps      uint64          `json:"proxy_ops_total"`
	SessionList   []SessionStatus `json:"session_list,omitempty"`
	Backends      []BackendStatus `json:"backends,omitempty"`
}

// SessionStatus is one live session's row.
type SessionStatus struct {
	ID        uint64 `json:"id"`
	Pending   int32  `json:"pending"`
	ProxyRank int    `json:"proxy_rank"` // -1 for service sessions
	Backend   string `json:"backend,omitempty"`
	Draining  bool   `json:"draining,omitempty"`
}

// BackendStatus is one cached (or evicted-but-referenced) world's row.
type BackendStatus struct {
	Key          string `json:"key"`
	Gen          uint64 `json:"gen"`
	World        int    `json:"world"`
	Refs         int    `json:"refs"`
	Evicted      bool   `json:"evicted,omitempty"`
	DeadRanks    []int  `json:"dead_ranks,omitempty"`
	TokensInUse  int    `json:"tokens_in_use"`
	TokenPool    int    `json:"token_pool"`
	FuseBatches  uint64 `json:"fuse_batches,omitempty"`
	ProxySession int    `json:"proxy_sessions,omitempty"`
}

// Draining reports whether Close has begun — the /healthz readiness
// signal: a draining daemon still answers scrapes but must not receive
// new traffic.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// StatusReport snapshots the live session and backend tables.
func (s *Server) StatusReport() StatusReport {
	s.mu.Lock()
	closed := s.closed
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	backends := append([]*backend(nil), s.all...)
	s.mu.Unlock()

	rep := StatusReport{
		Draining:      closed,
		Sessions:      len(sessions),
		SessionsTotal: s.stSessions.Load(),
		Requests:      s.stRequests.Load(),
		Responses:     s.stResponses.Load(),
		ProxyOps:      s.stProxyOps.Load(),
	}
	for _, sess := range sessions {
		row := SessionStatus{
			ID:        sess.id,
			Pending:   sess.pending.Load(),
			ProxyRank: sess.proxyRank,
			Draining:  sess.draining.Load(),
		}
		if sess.be != nil {
			row.Backend = sess.be.key.String()
		}
		rep.SessionList = append(rep.SessionList, row)
	}
	for _, b := range backends {
		b.mu.Lock()
		row := BackendStatus{
			Key:         b.key.String(),
			Gen:         b.gen,
			World:       b.n,
			Refs:        b.refs.Count(),
			Evicted:     b.evicted,
			TokensInUse: len(b.admit),
			TokenPool:   cap(b.admit),
		}
		for r, dead := range b.dead {
			if dead {
				row.DeadRanks = append(row.DeadRanks, r)
			}
		}
		for _, ps := range b.proxySess {
			if ps != nil {
				row.ProxySession++
			}
		}
		b.mu.Unlock()
		rep.Backends = append(rep.Backends, row)
	}
	// Stable row order for watchers diffing consecutive scrapes.
	sort.Slice(rep.SessionList, func(i, j int) bool {
		return rep.SessionList[i].ID < rep.SessionList[j].ID
	})
	sort.Slice(rep.Backends, func(i, j int) bool {
		bi, bj := rep.Backends[i], rep.Backends[j]
		if bi.Key != bj.Key {
			return bi.Key < bj.Key
		}
		return bi.Gen < bj.Gen
	})
	return rep
}
