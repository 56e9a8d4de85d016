package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/hw"
	"repro/internal/serve"
	v1 "repro/internal/serve/v1"
	"repro/internal/sim"
	"repro/internal/ucx"
)

// planServer is the plan-serving daemon under test, in process behind a
// real loopback listener, plus the HTTP client the callers share.
type planServer struct {
	reg    *serve.Registry
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	// specJSON is each cluster's canonical topology document, the body of
	// registration and of plan_cold's hot reloads.
	specJSON map[string][]byte
}

// startPlanServer registers the beluga and narval tenants and serves the
// v1 API on a loopback port, with one keep-alive connection per client.
func startPlanServer(clients int) (*planServer, error) {
	docs, err := topologyDocs()
	if err != nil {
		return nil, err
	}
	reg := serve.NewRegistry(serve.DefaultTenantConfig())
	ps := &planServer{reg: reg, specJSON: docs}
	for _, c := range clusterNames {
		if _, err := reg.RegisterJSON(c, bytes.NewReader(docs[c])); err != nil {
			return nil, err
		}
	}
	ps.srv = serve.NewServer(reg, serve.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ps.hs = &http.Server{Handler: ps.srv.Handler()}
	ps.served = make(chan error, 1)
	go func() { ps.served <- ps.hs.Serve(ln) }()
	ps.base = "http://" + ln.Addr().String()
	ps.client = &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
	}}
	return ps, nil
}

// close stops the server and waits for its accept loop to return.
func (ps *planServer) close() {
	ps.client.CloseIdleConnections()
	_ = ps.hs.Close() // the listener error is reported by Serve below
	<-ps.served
}

// do sends one request and returns the body of a 200 response.
func (ps *planServer) do(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, ps.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := ps.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// planBody encodes a single /v1/plan request.
func planBody(it v1.BatchItem) []byte {
	b := make([]byte, 0, 96)
	b = append(b, `{"cluster":"`...)
	b = append(b, it.Cluster...)
	b = append(b, `","src":`...)
	b = strconv.AppendInt(b, int64(it.Src), 10)
	b = append(b, `,"dst":`...)
	b = strconv.AppendInt(b, int64(it.Dst), 10)
	b = append(b, `,"bytes":`...)
	b = strconv.AppendFloat(b, it.Bytes, 'g', -1, 64)
	b = append(b, `,"pathset":"`...)
	b = append(b, it.PathSet...)
	return append(b, `"}`...)
}

// reference plans with private contexts built exactly like the server's
// tenants, so checking a response never touches the caches under test.
type reference struct {
	ctx map[string]*ucx.Context
}

func newReference() (*reference, error) {
	ref := &reference{ctx: map[string]*ucx.Context{}}
	for _, c := range clusterNames {
		spec, err := topology(c)
		if err != nil {
			return nil, err
		}
		node, err := hw.Build(sim.New(), spec)
		if err != nil {
			return nil, err
		}
		ctx, err := ucx.NewContext(cuda.NewRuntime(node), serve.DefaultTenantConfig())
		if err != nil {
			return nil, err
		}
		ref.ctx[c] = ctx
	}
	return ref, nil
}

func (ref *reference) plan(it v1.BatchItem) (*core.Plan, error) {
	sel, err := ucx.PathSetByName(it.PathSet)
	if err != nil {
		return nil, err
	}
	return ref.ctx[it.Cluster].PlanForSet(it.Src, it.Dst, it.Bytes, sel, nil)
}

// checkPlan compares a served plan with the reference: θ, bytes and chunk
// counts must match exactly.
func (ref *reference) checkPlan(it v1.BatchItem, got *v1.PlanResponse) error {
	want, err := ref.plan(it)
	if err != nil {
		return err
	}
	if got.PredictedSeconds != want.PredictedTime || len(got.Paths) != len(want.Paths) {
		return fmt.Errorf("plan %+v: predicted %v s over %d paths, reference %v s over %d",
			it, got.PredictedSeconds, len(got.Paths), want.PredictedTime, len(want.Paths))
	}
	for i, pp := range want.Paths {
		g := got.Paths[i]
		if g.Path != pp.Path.String() || g.Theta != pp.Theta || g.Bytes != pp.Bytes || g.Chunks != pp.Chunks {
			return fmt.Errorf("plan %+v path %d: served %s θ=%v bytes=%v k=%d, reference %s θ=%v bytes=%v k=%d",
				it, i, g.Path, g.Theta, g.Bytes, g.Chunks, pp.Path, pp.Theta, pp.Bytes, pp.Chunks)
		}
	}
	return nil
}

// checkBatchResult compares one item of a summary batch with the reference.
func (ref *reference) checkBatchResult(it v1.BatchItem, got v1.BatchResult) error {
	if got.Error != nil {
		return fmt.Errorf("batch item %+v: %v", it, got.Error)
	}
	want, err := ref.plan(it)
	if err != nil {
		return err
	}
	if got.PredictedSeconds != want.PredictedTime || got.PredictedGBps != want.PredictedBandwidth/1e9 {
		return fmt.Errorf("batch item %+v: served %v s, reference %v s", it, got.PredictedSeconds, want.PredictedTime)
	}
	return nil
}

// checkDetailBatch sends items as one detailed batch and checks every
// returned plan against the reference.
func (ps *planServer) checkDetailBatch(ref *reference, items []v1.BatchItem) error {
	body, err := json.Marshal(v1.BatchRequest{Items: items, Detail: true})
	if err != nil {
		return err
	}
	out, err := ps.do(http.MethodPost, "/v1/batch", body)
	if err != nil {
		return err
	}
	var resp v1.BatchResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		return err
	}
	if resp.Failed > 0 || len(resp.Results) != len(items) {
		return fmt.Errorf("detail batch: %d of %d items failed, %d results", resp.Failed, len(items), len(resp.Results))
	}
	for i, it := range items {
		if resp.Results[i].Plan == nil {
			return fmt.Errorf("detail batch item %d has no plan", i)
		}
		if err := ref.checkPlan(it, resp.Results[i].Plan); err != nil {
			return err
		}
	}
	return nil
}
