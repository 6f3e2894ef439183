package serve

import (
	"context"
	"testing"
	"time"
)

// TestThousandClientsLinearizable is the acceptance end-to-end: ≥1k
// concurrent closed-loop clients complete a KV workload against one live
// cluster with zero linearizability violations and a clean attached
// conformance report. The in-process transport keeps a thousand clients
// from meaning a thousand sockets; every request still crosses the full
// HTTP handler, KV chain and consensus engine.
func TestThousandClientsLinearizable(t *testing.T) {
	srv, client := newTestServer(t, func(c *Config) {
		c.ProposeTimeout = 60 * time.Second
	})
	rep, err := RunLoad(context.Background(), LoadConfig{
		BaseURL:      client.BaseURL,
		HTTP:         client.HTTP,
		Clients:      1000,
		Keys:         32,
		OpsPerClient: 2,
		ReadFraction: 0.5,
		Seed:         9,
		RecordOps:    true,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	t.Logf("e2e load: %s", rep)
	if rep.Ops < 2000 {
		t.Fatalf("only %d ops completed, want 2000", rep.Ops)
	}
	if rep.CASOk == 0 {
		t.Fatal("no decided CAS operations")
	}
	if rep.Errors != 0 || rep.Timeouts != 0 {
		t.Fatalf("clean mesh saw %d errors, %d timeouts", rep.Errors, rep.Timeouts)
	}

	chains := gatherChains(t, client, 32)
	if err := CheckLinearizable(chains, rep.Records); err != nil {
		t.Fatalf("linearizability violated: %v", err)
	}

	quiesce(t, srv)
	status, err := client.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if status.Conform == nil || !status.Conform.Clean {
		t.Fatalf("conformance not clean: %+v", status.Conform)
	}
	if status.Engine.AgreementViolated != 0 {
		t.Fatalf("engine tallied %d agreement violations", status.Engine.AgreementViolated)
	}
	// Every committed version is one consensus instance; the engine must
	// have decided at least that many.
	var versions int
	for _, c := range chains {
		versions += len(c)
	}
	if int64(versions) != rep.CASOk {
		t.Errorf("chains hold %d versions but %d CAS ops won", versions, rep.CASOk)
	}
	if status.Engine.Completed < int64(versions) {
		t.Errorf("engine completed %d instances for %d versions", status.Engine.Completed, versions)
	}
}
