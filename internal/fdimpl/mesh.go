package fdimpl

import (
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/netobs"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/wire"
)

// MeshConfig sizes and seeds one standalone detector mesh.
type MeshConfig struct {
	N int
	// Seed drives the network delays and, when Chaos is set, the chaos
	// schedule (Chaos is cloned; its own Seed is overridden).
	Seed  int64
	Chaos *faults.Config
	// Period, Timeout and AdaptiveMax are handed to every detector, which is
	// built adaptive (the ◇P variant, for constructions that have one).
	Period, Timeout time.Duration
	AdaptiveMax     time.Duration
}

// Mesh is n detectors of one construction over a seeded in-process network
// with no consensus on top: a pump goroutine per endpoint stands in for the
// node demultiplexer and feeds arrivals to the detector. It is what the E15
// race, the zoo's tests and E14's adaptive soak run on. Everything is
// accounted on the mesh's own registry.
type Mesh struct {
	Detectors []runtime.Detector // by process id; [0] is nil
	Wire      *netobs.WireStats
	Metrics   *obs.Registry
	Network   *runtime.ChanNetwork

	inj       *faults.Injector
	quit      chan struct{}
	pumps     sync.WaitGroup
	closeOnce sync.Once
}

// StartMesh builds and starts the mesh; the caller must Close it. It fails
// only when spec rejects the configuration (sdd at n≠2).
func StartMesh(spec *runtime.DetectorSpec, cfg MeshConfig) (*Mesh, error) {
	reg := obs.NewRegistry()
	m := &Mesh{
		Detectors: make([]runtime.Detector, cfg.N+1),
		Wire:      netobs.NewWireStats(reg),
		Metrics:   reg,
		Network:   runtime.NewChanNetwork(cfg.N, runtime.ChanConfig{Seed: cfg.Seed, Metrics: reg}),
		quit:      make(chan struct{}),
	}
	if cfg.Chaos != nil {
		fc := *cfg.Chaos
		fc.Seed = cfg.Seed
		fc.Metrics = reg
		m.inj = faults.NewInjector(fc)
	}
	// ChanNetwork keeps inboxes open past Close (endpoints outlive crashing
	// nodes), so the quit channel is what ends the pumps.
	for i := 1; i <= cfg.N; i++ {
		var tr runtime.Transport = m.Network.Endpoint(model.ProcessID(i))
		if m.inj != nil {
			tr = m.inj.Wrap(tr)
		}
		d, err := spec.New(runtime.DetectorConfig{
			Transport: tr, N: cfg.N,
			Period: cfg.Period, Timeout: cfg.Timeout,
			Adaptive: true, AdaptiveMax: cfg.AdaptiveMax,
			Metrics: reg, Wire: m.Wire,
		})
		if err != nil {
			m.Close()
			return nil, err
		}
		m.Detectors[i] = d
		m.pumps.Add(1)
		go m.pump(tr, d)
	}
	if m.inj != nil {
		m.inj.Start()
	}
	for _, d := range m.Detectors[1:] {
		d.Start()
	}
	return m, nil
}

func (m *Mesh) pump(tr runtime.Transport, d runtime.Detector) {
	defer m.pumps.Done()
	for {
		select {
		case <-m.quit:
			return
		case pkt, ok := <-tr.Recv():
			if !ok {
				return
			}
			if env, err := wire.Decode(pkt.Data); err == nil {
				m.Wire.AddDecoded(env.Kind, 1, int64(len(pkt.Data)))
				d.Observe(env)
			}
		}
	}
}

// Close stops every detector, joins the pumps and tears the injector and
// network down. Idempotent.
func (m *Mesh) Close() {
	m.closeOnce.Do(func() {
		for _, d := range m.Detectors {
			if d != nil {
				d.Stop()
			}
		}
		close(m.quit)
		m.pumps.Wait()
		if m.inj != nil {
			_ = m.inj.Close()
		}
		_ = m.Network.Close()
	})
}
