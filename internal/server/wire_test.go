package server

import (
	"encoding/json"
	"testing"

	fsam "repro"
)

// TestAnalyzeRequestWireForm pins the analyze body's JSON: every config
// field under its wire name and in its order, the zero config as an empty
// object, and the service-internal NoDegrade knob invisible on the wire in
// both directions.
func TestAnalyzeRequestWireForm(t *testing.T) {
	full := AnalyzeRequest{
		Name: "p.mc", Source: "int main() { return 0; }", Base: "sha256:b",
		Benchmark: "word_count", Scale: 2, DeadlineMS: 500,
		Config: fsam.Config{
			Engine: "tmod", MemModel: "tso",
			NoInterleaving: true, NoValueFlow: true, NoLock: true,
			CtxDepth: 3, MemBudgetBytes: 1024, StepLimit: 99,
			NoDegrade: true,
		},
	}
	for _, tc := range []struct {
		req  AnalyzeRequest
		want string
	}{
		{full, `{"name":"p.mc","source":"int main() { return 0; }","base":"sha256:b",` +
			`"benchmark":"word_count","scale":2,"config":{"engine":"tmod","memmodel":"tso",` +
			`"no_interleaving":true,"no_valueflow":true,"no_lock":true,"ctx_depth":3,` +
			`"membudget":1024,"steplimit":99},"deadline_ms":500}`},
		{AnalyzeRequest{Source: "x"}, `{"source":"x","config":{}}`},
	} {
		got, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("wire form drifted:\n got %s\nwant %s", got, tc.want)
		}
	}

	// Go matches JSON keys to field names case-insensitively, so only an
	// explicit "-" tag keeps a client from switching it on.
	req, err := DecodeAnalyze([]byte(`{"source":"int main() { return 0; }",`+
		`"config":{"NoDegrade":true,"nodegrade":true}}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, cfg, _, err := ResolveInputs(req, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NoDegrade {
		t.Error("wire body set the service-internal NoDegrade knob")
	}
}
