package runtime

import (
	"strings"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/model"
	"repro/internal/netobs"
	"repro/internal/obs"
	"repro/internal/wire"
)

// bareDetector is a DetectorCore that never sends and never suspects.
type bareDetector struct{ *DetectorCore }

func (bareDetector) Start()                  {}
func (bareDetector) Suspects() model.ProcSet { return 0 }

// TestDetectorSendCounts pins the one seam every control message leaves
// through: a successful Send is counted once per kind with its encoded
// size, once on the link and once on the detector's sent counter; an
// envelope that cannot encode moves only the encode-error counters; a
// stopped detector sends nothing.
func TestDetectorSendCounts(t *testing.T) {
	const k = 7
	reg := obs.NewRegistry()
	nw := NewChanNetwork(2, ChanConfig{Metrics: reg})
	defer func() { _ = nw.Close() }()
	ws := netobs.NewWireStats(reg)
	core := NewDetectorCore("sendprobe", DetectorConfig{
		Transport: nw.Endpoint(1), N: 2, Metrics: reg, Wire: ws,
	})
	sent := reg.Counter(obs.Label(MetricHeartbeatsSent, "detector", "sendprobe"))
	encodeErrors := reg.Counter(obs.Label(MetricFDEncodeErrors, "detector", "sendprobe"))
	link := func() netobs.LinkTotals { return nw.Telemetry().PerLink()[netobs.Link{From: 1, To: 2}] }

	envs := []wire.Envelope{
		{To: 2, Round: 300, Kind: wire.KindHeartbeat},
		{To: 2, Kind: wire.KindFDPing},
		{To: 2, Kind: wire.KindFDAck},
		{To: 2, Round: 5, Kind: wire.KindFDRing, Payload: wire.RingInfo{Origins: []wire.RingOrigin{{Proc: 1, Seq: 5}, {Proc: 2, Seq: 900}}}},
	}
	wantBytes := map[string]int64{}
	var totalBytes int64
	for _, env := range envs {
		stamped := env
		stamped.From = 1 // Send stamps the local id
		data, err := wire.Encode(stamped)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes[env.Kind.String()] = k * int64(len(data))
		totalBytes += k * int64(len(data))
		for i := 0; i < k; i++ {
			core.Send(env)
		}
	}
	check := func(when string) {
		t.Helper()
		per := ws.PerKind()
		if len(per) != len(envs) {
			t.Fatalf("%s: PerKind() = %+v, want the %d control kinds", when, per, len(envs))
		}
		for _, kt := range per {
			if kt.Encoded != k || kt.EncodedBytes != wantBytes[kt.Kind] {
				t.Errorf("%s: kind %s encoded %d msgs / %d B, want %d / %d", when, kt.Kind, kt.Encoded, kt.EncodedBytes, k, wantBytes[kt.Kind])
			}
		}
		if l := link(); l.MsgsSent != k*int64(len(envs)) || l.BytesSent != totalBytes {
			t.Errorf("%s: link 1>2 carried %d msgs / %d B, want %d / %d", when, l.MsgsSent, l.BytesSent, k*len(envs), totalBytes)
		}
		if got := sent.Value(); got != k*int64(len(envs)) {
			t.Errorf("%s: %s = %d, want %d", when, MetricHeartbeatsSent, got, k*len(envs))
		}
	}
	check("after the sends")
	if core.EncodeErrors() != 0 || encodeErrors.Value() != 0 {
		t.Errorf("encode errors after clean sends: %d / %d", core.EncodeErrors(), encodeErrors.Value())
	}

	// A failed conversion is never counted as traffic.
	core.Send(wire.Envelope{To: 2, Kind: wire.Kind(99)})
	if core.EncodeErrors() != 1 || encodeErrors.Value() != 1 {
		t.Errorf("encode errors after a bad kind: %d / %d, want 1 / 1", core.EncodeErrors(), encodeErrors.Value())
	}
	check("after the encode failure")

	// A stopped detector is a crash-stopped process: nothing moves.
	core.Stop()
	core.Send(envs[0])
	core.Send(wire.Envelope{To: 2, Kind: wire.Kind(99)})
	check("after Stop")
	if core.EncodeErrors() != 1 {
		t.Errorf("a stopped detector counted an encode error: %d", core.EncodeErrors())
	}
}

// TestDetectorRegistryPrivate: a detector is built on the registry its
// config names and touches no other — an engine on a private registry leaves
// nothing behind in obs.Default.
func TestDetectorRegistryPrivate(t *testing.T) {
	reg := obs.NewRegistry()
	spec := &DetectorSpec{Name: "leakprobe", New: func(cfg DetectorConfig) (Detector, error) {
		return bareDetector{NewDetectorCore("leakprobe", cfg)}, nil
	}}
	_, st, err := runInstances(consensus.FloodSetWS{}, EngineConfig{
		N: 3, T: 1, Metrics: reg, Detector: spec, HeartbeatPeriod: 2 * time.Millisecond,
	}, 2, func(inst int, id model.ProcessID) model.Value { return model.Value(id) })
	if err != nil {
		t.Fatal(err)
	}
	if st.DecidedNodes != 6 {
		t.Fatalf("precondition: %d/6 decisions", st.DecidedNodes)
	}
	for name := range obs.Default.Snapshot().Counters {
		if strings.Contains(name, `detector="leakprobe"`) {
			t.Errorf("obs.Default holds %s: the private registry leaked", name)
		}
	}
	private := reg.Snapshot().Counters
	for _, family := range []string{MetricHeartbeatsSent, MetricSuspicionsRaised, MetricSuspicionsRetracted, MetricFDEncodeErrors} {
		if _, ok := private[obs.Label(family, "detector", "leakprobe")]; !ok {
			t.Errorf("private registry lacks %s{detector=\"leakprobe\"}", family)
		}
	}
}
