package mpsim

// RankStats counts the traffic one simulated process generated and
// consumed.  The network-fault counters stay zero on a perfect
// network: Drops and Retransmits are charged to the sender,
// DupsDiscarded and CorruptDiscarded to the receiver, Timeouts to the
// process whose deadline expired, and FailedSends to a sender whose
// peer the reliable transport abandoned.
type RankStats struct {
	MsgsSent  int64
	BytesSent int64
	MsgsRecv  int64
	BytesRecv int64

	Drops            int64
	Retransmits      int64
	DupsDiscarded    int64
	CorruptDiscarded int64
	Timeouts         int64
	FailedSends      int64
}

// PairKey identifies an ordered (sender, receiver) world-rank pair.
type PairKey struct {
	From, To int
}

// PairStats counts traffic between one ordered pair of processes.  The
// paper argues Meta-Chaos sends exactly the messages a hand-crafted
// exchange would; tests use these counters to check that claim.
type PairStats struct {
	Msgs  int64
	Bytes int64

	// Network-fault counters for the directed link (zero on a perfect
	// network).
	Drops         int64
	Retransmits   int64
	DupsDiscarded int64
}

// Stats accumulates the observable outcome of a simulated run.
type Stats struct {
	// Machine names the cost model profile used.
	Machine string
	// MakespanSeconds is the largest final virtual clock over all
	// processes: the virtual wall-clock time of the run.
	MakespanSeconds float64
	// PerRank has one entry per world rank.
	PerRank []RankStats
	// Pairs maps ordered process pairs to their traffic.
	Pairs map[PairKey]*PairStats
	// Trace holds the event record when Config.Trace was set; nil
	// otherwise.
	Trace *Trace
	// Crashes is the run's crash-fault history (Config.Crash), ordered
	// by crash time; empty without a crash plan.
	Crashes []CrashRecord
	// Joins is the run's elastic-growth history (Config.Join), ordered
	// by join time; empty without a join plan.
	Joins []JoinRecord
}

// pair returns the counters for the ordered (from, to) link, creating
// them on first use.
func (s *Stats) pair(from, to int) *PairStats {
	if s.Pairs == nil {
		s.Pairs = make(map[PairKey]*PairStats)
	}
	k := PairKey{From: from, To: to}
	ps := s.Pairs[k]
	if ps == nil {
		ps = &PairStats{}
		s.Pairs[k] = ps
	}
	return ps
}

// adoptPairs folds a shard's payload pair counters into s after the
// run.  The shard's entries are taken over rather than copied: the
// whole map when s has none yet, otherwise each key s lacks.
func (s *Stats) adoptPairs(m map[PairKey]*PairStats) {
	if s.Pairs == nil {
		s.Pairs = m
		return
	}
	for k, ps := range m {
		if t := s.Pairs[k]; t != nil {
			t.Msgs += ps.Msgs
			t.Bytes += ps.Bytes
		} else {
			s.Pairs[k] = ps
		}
	}
}

// TotalMsgs returns the total number of messages sent during the run.
func (s *Stats) TotalMsgs() int64 {
	var n int64
	for i := range s.PerRank {
		n += s.PerRank[i].MsgsSent
	}
	return n
}

// TotalBytes returns the total payload bytes sent during the run.
func (s *Stats) TotalBytes() int64 {
	var n int64
	for i := range s.PerRank {
		n += s.PerRank[i].BytesSent
	}
	return n
}

// TotalRetransmits returns the total retransmissions over the run, the
// chaos harness's "bounded recovery effort" metric.
func (s *Stats) TotalRetransmits() int64 {
	var n int64
	for i := range s.PerRank {
		n += s.PerRank[i].Retransmits
	}
	return n
}

// TotalDrops returns the total transmissions lost to fault injection.
func (s *Stats) TotalDrops() int64 {
	var n int64
	for i := range s.PerRank {
		n += s.PerRank[i].Drops
	}
	return n
}
