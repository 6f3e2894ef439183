package runtime

import (
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/nbac"
	"repro/internal/rounds"
	"repro/internal/wire"
)

// TestLiveNBACCommitsFailureFree: all-Yes votes over the live RS cluster
// commit.
func TestLiveNBACCommitsFailureFree(t *testing.T) {
	cr, err := RunCluster(nbac.ForRS(), EngineConfig{
		Kind:          rounds.RS,
		T:             1,
		RoundDuration: 15 * time.Millisecond,
	}, []model.Value{nbac.VoteYes, nbac.VoteYes, nbac.VoteYes}, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v, st := cr.Agreement()
	if st != AgreementReached || v != nbac.Commit {
		t.Fatalf("agreement = (%v,%v), want COMMIT", nbac.DecisionString(v), st)
	}
}

// TestLiveNBACAbortsOnNoVote: one No vote aborts, live.
func TestLiveNBACAbortsOnNoVote(t *testing.T) {
	cr, err := RunCluster(nbac.ForRWS(), EngineConfig{
		Kind: rounds.RWS,
		T:    1,
	}, []model.Value{nbac.VoteYes, nbac.VoteNo, nbac.VoteYes}, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v, st := cr.Agreement()
	if st != AgreementReached || v != nbac.Abort {
		t.Fatalf("agreement = (%v,%v), want ABORT", nbac.DecisionString(v), st)
	}
}

// TestLiveNBACCommitGap reproduces E9's separating scenario on real
// goroutines: p1 votes Yes and crashes right after its voting round.
//
//   - RS cluster: the bounded-delay network already delivered the vote —
//     the survivors COMMIT.
//   - RWS cluster with p1's vote messages crawling behind fast failure
//     detection: the survivors suspect p1 before its vote arrives and must
//     ABORT — the same physical crash, the opposite decision.
func TestLiveNBACCommitGap(t *testing.T) {
	votes := []model.Value{nbac.VoteYes, nbac.VoteYes, nbac.VoteYes}

	rs, err := RunCluster(nbac.ForRS(), EngineConfig{
		Kind: rounds.RS, T: 1,
		RoundDuration: 15 * time.Millisecond,
	}, votes, OpenOptions{Crashes: map[model.ProcessID]CrashPlan{1: {Round: 2, Reach: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if v, st := rs.Agreement(); st != AgreementReached || v != nbac.Commit {
		t.Fatalf("RS: agreement = (%v,%v), want COMMIT (vote already delivered)", nbac.DecisionString(v), st)
	}

	slowVotes := func(from, to model.ProcessID, data []byte) time.Duration {
		env, err := wire.Decode(data)
		if err == nil && from == 1 && env.Kind == wire.KindVotes {
			return 300 * time.Millisecond
		}
		return 500 * time.Microsecond
	}
	nw := NewChanNetwork(3, ChanConfig{Delay: slowVotes})
	rws, err := RunCluster(nbac.ForRWS(), EngineConfig{
		Kind: rounds.RWS, T: 1,
		Network: nw,
	}, votes, OpenOptions{Crashes: map[model.ProcessID]CrashPlan{1: {Round: 2, Reach: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 3; i++ {
		if !rws.Outcome.Decided[i-1] || rws.Outcome.Decisions[i-1] != nbac.Abort {
			t.Fatalf("RWS: p%d in %+v, want ABORT (vote pending behind suspicion)", i, rws.Outcome)
		}
	}
}
