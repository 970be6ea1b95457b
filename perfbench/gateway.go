package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"micropnp"
	"micropnp/internal/catalog"
	"micropnp/internal/gateway"
)

// gateway-rw: one keep-alive HTTP connection, a closed-loop polling
// client, against internal/gateway fronting one deployment over loopback.
// Mostly GET …/read, PUT …/write to relay banks, and a 2% share of
// GET /things: a listing costs about four reads at 64 Things, so at 2%
// both p50 and p90 fall inside the read/write mass. The catalog is warmed
// in set-up and no refresh pump runs. The gateway handlers, net/http, JSON
// and the catalog carry the load; the sharded clock and multicast are
// bypassed. One connection means one SDK caller at a time: two concurrent
// callers lose a few requests in 10 000 to the client's register/send
// race, a number that differs from run to run.
//
// Past set-up the workload runs on one P (gatewayTimedProcs). The single
// connection has no parallel work to give a second P, and with two, each
// request wakes the other P to run the server or the client: the host's
// wake-up latency then set the p90, which spread up to 0.19 across ten
// runs.
const gatewayTimedProcs = 1

// The op mix, in percent.
const (
	gwListPct  = 2
	gwWritePct = 13
)

const (
	opRead = iota
	opWrite
	opList
	opKinds
)

var opKindNames = [opKinds]string{"read", "write", "list"}

func gatewaySizes(c *config) sizes {
	if c.tiny {
		return sizes{things: 16, setups: 2, warm: 40, probeOps: 200}
	}
	return sizes{things: 64, setups: 90, warm: 2000, probeOps: 20000}
}

// gw is a gateway deployment and its HTTP server.
type gw struct {
	pop *sdkPop
	cat *catalog.Catalog
	srv *gateway.Server
	// readPath is each sensor target's read URL path.
	readPath []string
	http     *http.Server
	base     string
	served   chan error
}

func buildGateway(n int, e env) (*gw, error) {
	g := &gw{}
	pop, err := buildSDK(n, e, true, func(d *micropnp.Deployment, cl *micropnp.Client) error {
		cat, err := catalog.New(catalog.Config{Now: d.Now})
		if err != nil {
			return err
		}
		cl.AddAdvertHook(cat.Observe)
		g.cat = cat
		return nil
	})
	if err != nil {
		return nil, err
	}
	g.pop = pop
	if g.srv, err = gateway.New(gateway.Config{Deployment: pop.d, Client: pop.cl, Catalog: g.cat}); err != nil {
		return nil, err
	}
	if _, total := g.cat.List(catalog.Filter{}, 0, 0); total != len(pop.targets)+len(pop.relays) {
		return nil, fmt.Errorf("catalog holds %d peripherals after set-up, want %d", total, len(pop.targets)+len(pop.relays))
	}
	for _, t := range pop.targets {
		g.readPath = append(g.readPath, "/things/"+t.addr.String()+"/read?peripheral="+sensorKinds[t.kind].name)
	}
	return g, nil
}

// serve starts the HTTP server on a loopback port with h as its handler.
func (g *gw) serve(h http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	g.base = "http://" + ln.Addr().String()
	g.http = &http.Server{Handler: h}
	g.served = make(chan error, 1)
	go func() { g.served <- g.http.Serve(ln) }()
	return nil
}

// close stops the server and waits for it to exit.
func (g *gw) close() {
	g.http.Close()
	<-g.served
}

// gwClient is the polling connection.
type gwClient struct {
	g     *gw
	hc    *http.Client
	rng   *rand.Rand
	e     env
	r     *gwTally
	tr    *tracer
	kinds [opKinds]uint16
	body  bytes.Buffer
	rd    gateway.ReadingJSON
	list  gateway.ListJSON
	op    uint32
}

// gwTally is the connection's counts, merged into the report after the
// timed phase; the warm-up's are thrown away.
type gwTally struct {
	attempted, failed, checkFails, timeouts int64
	fails                                   []string
	lat, virt                               hist
}

func (t *gwTally) fail(check bool, format string, args ...any) {
	t.failed++
	if check {
		t.checkFails++
		format = "check: " + format
	}
	if len(t.fails) < 4 {
		t.fails = append(t.fails, fmt.Sprintf(format, args...))
	}
}

func (t *gwTally) into(r *report) {
	r.attempted += t.attempted
	r.failed += t.failed
	r.timeouts += t.timeouts
	r.checkFails += t.checkFails
	for _, f := range t.fails {
		r.remember("%s", f)
	}
}

func newGWClient(g *gw, seed int64, e env, tr *tracer) *gwClient {
	c := &gwClient{
		g:   g,
		hc:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}},
		rng: rand.New(rand.NewSource(seed * 31)),
		e:   e,
		r:   &gwTally{},
		tr:  tr,
	}
	for k, n := range opKindNames {
		c.kinds[k] = tr.kind("http." + n)
	}
	return c
}

// do issues one request of the seeded mix and checks the answer.
func (c *gwClient) do() {
	p := c.rng.Intn(100)
	kind := opRead
	switch {
	case p < gwListPct:
		kind = opList
	case p < gwListPct+gwWritePct && len(c.g.pop.relays) > 0:
		kind = opWrite
	}
	c.op++
	c.r.attempted++
	var ti int
	var rt relayTarget
	var val int32
	switch kind {
	case opRead:
		ti = c.rng.Intn(len(c.g.pop.targets))
	case opWrite:
		rt = c.g.pop.relays[c.rng.Intn(len(c.g.pop.relays))]
		val = int32(c.rng.Intn(256))
	}
	sp := c.tr.begin(c.kinds[kind], c.op, -1)
	resp, body, err := c.roundTrip(kind, sp, ti, rt, val)
	c.tr.end(sp)
	if err != nil {
		c.r.fail(false, "%s: %v", opKindNames[kind], err)
		return
	}
	if resp.StatusCode/100 != 2 {
		if resp.StatusCode == http.StatusGatewayTimeout {
			c.r.timeouts++
		}
		c.r.fail(false, "%s: status %d: %s", opKindNames[kind], resp.StatusCode, strings.Join(strings.Fields(string(body)), " "))
		return
	}
	if v, err := strconv.ParseInt(resp.Header.Get("X-Upnp-Virtual-Ns"), 10, 64); err == nil && kind != opList {
		c.r.virt.record(time.Duration(v))
	}
	switch kind {
	case opRead:
		t := c.g.pop.targets[ti]
		c.rd = gateway.ReadingJSON{}
		if err := json.Unmarshal(body, &c.rd); err != nil {
			c.r.fail(true, "read %s: bad body: %v", t.addr, err)
		} else if c.rd.Thing != t.addr.String() || c.rd.Device != sensorKinds[t.kind].id.String() {
			c.r.fail(true, "read %s %s answered as %s %s", t.addr, sensorKinds[t.kind].name, c.rd.Thing, c.rd.Device)
		} else if err := c.e.checkValues(t.kind, c.rd.Values); err != nil {
			c.r.fail(true, "%s: %v", t.addr, err)
		}
	case opWrite:
		if got := rt.bank.State(); got != byte(val) {
			c.r.fail(true, "relay %s holds %08b after writing %08b", rt.addr, got, byte(val))
		}
	case opList:
		c.list = gateway.ListJSON{}
		if err := json.Unmarshal(body, &c.list); err != nil {
			c.r.fail(true, "list: bad body: %v", err)
		} else if want := len(c.g.pop.targets) + len(c.g.pop.relays); c.list.Total != want || len(c.list.Things) != want {
			c.r.fail(true, "list: %d of %d entries, want %d", len(c.list.Things), c.list.Total, want)
		}
	}
}

// roundTrip sends one request and reads the whole answer, so the
// connection is reused.
func (c *gwClient) roundTrip(kind int, sp int32, ti int, rt relayTarget, val int32) (*http.Response, []byte, error) {
	var req *http.Request
	var err error
	switch kind {
	case opRead:
		req, err = http.NewRequest(http.MethodGet, c.g.base+c.g.readPath[ti], nil)
	case opWrite:
		c.body.Reset()
		c.body.WriteString(`{"values":[`)
		c.body.WriteString(strconv.Itoa(int(val)))
		c.body.WriteString(`]}`)
		req, err = http.NewRequest(http.MethodPut, c.g.base+"/things/"+rt.addr.String()+"/write?peripheral=relay", bytes.NewReader(c.body.Bytes()))
	case opList:
		req, err = http.NewRequest(http.MethodGet, c.g.base+"/things", nil)
	}
	if err != nil {
		return nil, nil, err
	}
	if sp >= 0 {
		req.Header.Set(spanHeader, strconv.Itoa(int(sp)))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("reading body: %w", err)
	}
	return resp, body, nil
}

// loop runs closed-loop requests until deadline, recording wall latency.
func (c *gwClient) loop(deadline time.Time) (n int) {
	t0 := time.Now()
	for t0.Before(deadline) {
		c.do()
		t1 := time.Now()
		c.r.lat.record(t1.Sub(t0))
		n++
		t0 = t1
	}
	return n
}

// spanHeader carries a traced request's span index to the server side.
const spanHeader = "X-Bench-Span"

func runGateway(c *config, r *report) error {
	sz := gatewaySizes(c)
	e := envFromSeed(c.seed)
	var g *gw
	if err := r.timeSetups(sz.setups, func() error {
		var err error
		g, err = buildGateway(sz.things, e)
		return err
	}); err != nil {
		return err
	}
	if err := g.serve(g.srv); err != nil {
		return err
	}
	defer g.close()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gatewayTimedProcs))
	r.logf("warm-up and timed phase run with GOMAXPROCS=%d", gatewayTimedProcs)
	cn := newGWClient(g, c.seed, e, nil)
	defer cn.hc.CloseIdleConnections()
	for i := 0; i < sz.warm; i++ {
		cn.do()
	}
	cn.r = &gwTally{}

	cal := newCalibrator()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n := 0
	work := segmented(c.window(), cal, func(deadline time.Time) { n += cn.loop(deadline) })
	runtime.ReadMemStats(&m1)

	cn.r.into(r)
	r.set("ops_per_s", float64(n)/work.Seconds())
	r.set("op_p50_us", cn.r.lat.quantileUS(0.5))
	r.set("op_p90_us", cn.r.lat.quantileUS(0.9))
	r.set("ok_ratio", 1-float64(r.failed)/float64(r.attempted))
	r.set("allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/float64(n))
	r.set("virt_p50_ms", cn.r.virt.quantileUS(0.5)/1e3)
	cal.release()
	r.set("heap_mb", liveHeapMB())
	r.scaleWallTimes(cal, cal.segmentFactor(), cal.levelFactor())
	runtime.KeepAlive(g)
	return nil
}

// spanMiddleware records a server-side span for each traced request, as a
// child of the client span whose index the request carries, and samples
// how many requests the SDK client has pending when one enters.
type spanMiddleware struct {
	next http.Handler
	tr   *tracer
	k    uint16
	cl   *micropnp.Client
	peak atomic.Int64
}

func (m *spanMiddleware) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	p := int64(m.cl.InFlight()) + 1 // counting the request entering now
	for old := m.peak.Load(); p > old && !m.peak.CompareAndSwap(old, p); old = m.peak.Load() {
	}
	parent, err := strconv.Atoi(req.Header.Get(spanHeader))
	if err != nil {
		m.next.ServeHTTP(w, req)
		return
	}
	sp := m.tr.begin(m.k, 0, int32(parent))
	m.next.ServeHTTP(w, req)
	m.tr.end(sp)
}

func traceGateway(c *config, r *report) error {
	sz := gatewaySizes(c)
	e := envFromSeed(c.seed)
	tr := newTracer()
	g, err := buildGateway(sz.things, e)
	if err != nil {
		return err
	}
	mw := &spanMiddleware{next: g.srv, tr: tr, k: tr.kind("gateway.serve"), cl: g.pop.cl}
	if err := g.serve(mw); err != nil {
		return err
	}
	defer g.close()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gatewayTimedProcs))
	r.logf("everything past set-up runs with GOMAXPROCS=%d", gatewayTimedProcs)
	cn := newGWClient(g, c.seed, e, tr)
	defer cn.hc.CloseIdleConnections()
	cn.tr = nil
	for i := 0; i < sz.warm; i++ {
		cn.do()
	}
	cn.r = &gwTally{}
	mw.peak.Store(0)

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ns0, v0, t0 := g.pop.d.NetworkStats(), g.pop.d.Now(), time.Now()
	ops := alternate(r, c.window(), 4,
		func(deadline time.Time) int { cn.tr = nil; return cn.loop(deadline) },
		func(deadline time.Time) int { cn.tr = tr; return cn.loop(deadline) })
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	netDelta(r, ns0, g.pop.d.NetworkStats(), ops)
	runtimeDelta(r, &m0, &m1, ops)
	r.set("netsim.virt_s_per_wall_s", (g.pop.d.Now()-v0).Seconds()/wall.Seconds())
	cn.r.into(r)
	r.set("client.timeouts_per_kop", 1000*float64(r.timeouts)/float64(ops))
	if l := tr.selfTimes()["http.read"]; l != nil {
		r.set("gateway.transport_us", median(l.self))
	}

	// The handlers in-process, one request at a time, without a socket.
	reps := 2000
	if c.tiny {
		reps = 20
	}
	serve := func(req *http.Request, want int) {
		r.attempted++
		w := httptest.NewRecorder()
		g.srv.ServeHTTP(w, req)
		if w.Code != want {
			r.opFailed("in-process %s %s: status %d", req.Method, req.URL.Path, w.Code)
		}
	}
	r.set("gateway.handler_us.read", spanMedianUS(tr, "gateway.handler.read", reps, func(i int) {
		serve(httptest.NewRequest(http.MethodGet, g.readPath[i%len(g.readPath)], nil), http.StatusOK)
	}))
	r.set("gateway.handler_us.write", spanMedianUS(tr, "gateway.handler.write", reps, func(i int) {
		rt := g.pop.relays[i%len(g.pop.relays)]
		body := `{"values":[` + strconv.Itoa(i&255) + `]}`
		serve(httptest.NewRequest(http.MethodPut, "/things/"+rt.addr.String()+"/write?peripheral=relay", strings.NewReader(body)), http.StatusNoContent)
		if got := rt.bank.State(); got != byte(i) {
			r.checkFailed("relay %s holds %08b after writing %08b", rt.addr, got, byte(i))
		}
	}))
	r.set("gateway.handler_us.list", spanMedianUS(tr, "gateway.handler.list", reps/10, func(int) {
		serve(httptest.NewRequest(http.MethodGet, "/things", nil), http.StatusOK)
	}))
	r.set("catalog.list_us", spanMedianUS(tr, "catalog.list", reps/10, func(int) {
		g.cat.List(catalog.Filter{}, 0, 0)
	}))

	cp, err := buildCore(sz.things, e)
	if err != nil {
		return err
	}
	compareSDK(sz, e, c.seed, r, tr, g.pop, cp)
	r.set("client.pending_peak", float64(mw.peak.Load()))
	if err := probeMicro(c, r, tr, cp); err != nil {
		return err
	}
	hostFactor(r, 5)
	r.skip("one deployment on the single-loop clock", shardMetrics...)
	r.skip("no loadgen on this path", loadgenMetrics...)
	return finishTrace(c, r, tr)
}
