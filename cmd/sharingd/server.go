package main

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"sharing/internal/alloc"
	"sharing/internal/econ"
)

// The HTTP face of the allocation library: a thin JSON codec over
// alloc.Allocator. Every handler is safe for arbitrary concurrency — bids
// and reads ride the allocator's lock-free paths, membership ops its
// group-commit queue — so the server needs no locking of its own beyond
// per-endpoint request counters.

// Transport limits. Every POST body is capped (413 past the cap), and the
// daemon's http.Server bounds how long a client may take to send its
// headers and request and how long an idle keep-alive connection is held,
// so a slow or stalled client cannot pin a connection forever. No write timeout: a bid on a cold surface runs the
// simulator before it answers.
const (
	maxBodyBytes      = 1 << 20
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps h in an http.Server with the transport limits.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// httpCounters counts requests per endpoint (exposed via /v1/stats and
// /debug/vars).
type httpCounters struct {
	bid, arrive, depart, phase atomic.Int64
	vm, market, stats          atomic.Int64
	errors                     atomic.Int64
}

func (c *httpCounters) snapshot() map[string]int64 {
	return map[string]int64{
		"bid": c.bid.Load(), "arrive": c.arrive.Load(),
		"depart": c.depart.Load(), "phase": c.phase.Load(),
		"vm": c.vm.Load(), "market": c.market.Load(),
		"stats": c.stats.Load(), "errors": c.errors.Load(),
	}
}

type server struct {
	a    *alloc.Allocator
	mux  *http.ServeMux
	http httpCounters
}

func newServer(a *alloc.Allocator) *server {
	s := &server{a: a, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/bid", s.handleBid)
	s.mux.HandleFunc("POST /v1/arrive", s.handleArrive)
	s.mux.HandleFunc("POST /v1/depart", s.handleDepart)
	s.mux.HandleFunc("POST /v1/phase", s.handlePhase)
	s.mux.HandleFunc("GET /v1/vm", s.handleVM)
	s.mux.HandleFunc("GET /v1/market", s.handleMarket)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	// Observability: the process-wide expvar page (which carries this
	// server's allocator stats, see publishExpvar) and the pprof profiles,
	// mounted explicitly — the server never touches http.DefaultServeMux.
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	publishExpvar(s)
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// expvar names are process-global and Publish panics on duplicates, so the
// "sharingd" var is registered once and routed to the most recent server
// (tests construct several).
var (
	expvarOnce sync.Once
	expvarSrc  atomic.Pointer[server]
)

func publishExpvar(s *server) {
	expvarSrc.Store(s)
	expvarOnce.Do(func() {
		expvar.Publish("sharingd", expvar.Func(func() any {
			cur := expvarSrc.Load()
			return map[string]any{
				"alloc": cur.a.Stats(),
				"http":  cur.http.snapshot(),
			}
		}))
	})
}

// marketSpec selects the prices a bid is evaluated at: a named paper market
// (Market1..Market3), explicit per-resource costs, or — when absent, or
// both costs 0 — the allocator's current clearing prices. Explicit costs
// are validated by the allocator (a negative one is a 400).
type marketSpec struct {
	Name      string  `json:"name,omitempty"`
	SliceCost float64 `json:"sliceCost,omitempty"`
	BankCost  float64 `json:"bankCost,omitempty"`
}

func (sp *marketSpec) resolve(a *alloc.Allocator) (econ.Market, error) {
	if sp == nil {
		return a.Prices(), nil
	}
	if sp.Name != "" {
		for _, m := range econ.Markets() {
			if m.Name == sp.Name {
				return m, nil
			}
		}
		return econ.Market{}, fmt.Errorf("unknown market %q", sp.Name)
	}
	if sp.SliceCost != 0 || sp.BankCost != 0 {
		return econ.Market{Name: "custom", SliceCost: sp.SliceCost, BankCost: sp.BankCost}, nil
	}
	return a.Prices(), nil
}

type bidRequest struct {
	Bench  string      `json:"bench"`
	K      int         `json:"k"`
	Budget float64     `json:"budget"`
	Market *marketSpec `json:"market,omitempty"`
}

// utility maps the wire's zero values to the defaults (K 1, the default
// budget); anything else goes to the allocator as sent, which refuses
// economics with no meaning.
func (r *bidRequest) utility() econ.Utility {
	u := econ.Utility{K: r.K, Budget: r.Budget}
	if u.K == 0 {
		u.K = 1
	}
	if u.Budget == 0 {
		u.Budget = econ.DefaultBudget
	}
	return u
}

type arriveRequest struct {
	Name   string  `json:"name"`
	Bench  string  `json:"bench"`
	K      int     `json:"k"`
	Budget float64 `json:"budget"`
}

type nameRequest struct {
	Name string `json:"name"`
}

type phaseRequest struct {
	Name  string `json:"name"`
	Phase int    `json:"phase"`
}

// receiptReply flattens an alloc.Receipt for the wire.
type receiptReply struct {
	Seq        uint64                `json:"seq"`
	Epoch      uint64                `json:"epoch"`
	Batched    int                   `json:"batched"`
	Residents  int                   `json:"residents"`
	Prices     econ.Market           `json:"prices"`
	TotalU     float64               `json:"totalUtility"`
	Allocation *econ.Allocation      `json:"allocation,omitempty"`
	Reconfig   *receiptReconfigReply `json:"reconfig,omitempty"`
}

type receiptReconfigReply struct {
	AddSlices  int   `json:"addSlices,omitempty"`
	DropSlices int   `json:"dropSlices,omitempty"`
	AddBanks   int   `json:"addBanks,omitempty"`
	DropBanks  int   `json:"dropBanks,omitempty"`
	Cycles     int64 `json:"cycles"`
}

func (s *server) receiptReply(rc alloc.Receipt) receiptReply {
	rep := receiptReply{
		Seq: rc.Seq, Epoch: rc.Epoch, Batched: rc.Batched,
		Prices:     s.a.Prices(),
		Allocation: rc.Allocation,
	}
	if rc.Result != nil {
		rep.Residents = len(rc.Result.Allocations)
		rep.TotalU = rc.Result.TotalUtility
	}
	if rc.Reconfig != nil {
		rep.Reconfig = &receiptReconfigReply{
			AddSlices: rc.Reconfig.AddSlices, DropSlices: rc.Reconfig.DropSlices,
			AddBanks: rc.Reconfig.AddBanks, DropBanks: rc.Reconfig.DropBanks,
			Cycles: rc.Reconfig.Cycles,
		}
	}
	return rep
}

func (s *server) handleBid(w http.ResponseWriter, r *http.Request) {
	s.http.bid.Add(1)
	var req bidRequest
	if !s.decode(w, r, &req) {
		return
	}
	m, err := req.Market.resolve(s.a)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	br, err := s.a.PriceBid(req.Bench, req.utility(), m)
	if err != nil {
		s.fail(w, opStatus(err), err)
		return
	}
	s.reply(w, br)
}

func (s *server) handleArrive(w http.ResponseWriter, r *http.Request) {
	s.http.arrive.Add(1)
	var req arriveRequest
	if !s.decode(w, r, &req) {
		return
	}
	bid := bidRequest{K: req.K, Budget: req.Budget}
	rc, err := s.a.Arrive(req.Name, req.Bench, bid.utility())
	if err != nil {
		s.fail(w, opStatus(err), err)
		return
	}
	s.reply(w, s.receiptReply(rc))
}

func (s *server) handleDepart(w http.ResponseWriter, r *http.Request) {
	s.http.depart.Add(1)
	var req nameRequest
	if !s.decode(w, r, &req) {
		return
	}
	rc, err := s.a.Depart(req.Name)
	if err != nil {
		s.fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.reply(w, s.receiptReply(rc))
}

func (s *server) handlePhase(w http.ResponseWriter, r *http.Request) {
	s.http.phase.Add(1)
	var req phaseRequest
	if !s.decode(w, r, &req) {
		return
	}
	rc, err := s.a.Reconfigure(req.Name, req.Phase)
	if err != nil {
		s.fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.reply(w, s.receiptReply(rc))
}

func (s *server) handleVM(w http.ResponseWriter, r *http.Request) {
	s.http.vm.Add(1)
	name := r.URL.Query().Get("name")
	st, ok := s.a.VM(name)
	if !ok {
		s.fail(w, http.StatusNotFound, fmt.Errorf("no vm %q", name))
		return
	}
	s.reply(w, st)
}

// marketReply is the published market snapshot. Converged is false when
// the last clearing stopped at its round cap with the least-oversold prices
// it saw; an empty market has nothing to clear and reports true.
type marketReply struct {
	Epoch     uint64         `json:"epoch"`
	Prices    econ.Market    `json:"prices"`
	TotalU    float64        `json:"totalUtility"`
	Converged bool           `json:"converged"`
	VMs       []alloc.VMStat `json:"vms"`
}

func (s *server) handleMarket(w http.ResponseWriter, r *http.Request) {
	s.http.market.Add(1)
	v := s.a.Snapshot()
	rep := marketReply{Epoch: v.Epoch, Prices: s.a.Prices(), Converged: true, VMs: v.VMs}
	if rep.VMs == nil {
		rep.VMs = []alloc.VMStat{}
	}
	if v.Result != nil {
		rep.TotalU, rep.Converged = v.Result.TotalUtility, v.Result.Converged
	}
	s.reply(w, rep)
}

type statsReply struct {
	Alloc alloc.Stats      `json:"alloc"`
	HTTP  map[string]int64 `json:"http"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.http.stats.Add(1)
	s.reply(w, statsReply{Alloc: s.a.Stats(), HTTP: s.http.snapshot()})
}

// opStatus maps an allocator error to its status: 400 for economics the
// core refuses, 422 for a well-formed request it cannot serve.
func opStatus(err error) int {
	if errors.Is(err, alloc.ErrInvalid) {
		return http.StatusBadRequest
	}
	return http.StatusUnprocessableEntity
}

// decode reads a request body of at most maxBodyBytes holding exactly one
// JSON value: 413 past the cap, 400 for anything malformed, including any
// bytes but white space after the value.
func (s *server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, tail := dec.Token(); tail != io.EOF {
			err = tail
			if !errors.As(tail, new(*http.MaxBytesError)) {
				err = errors.New("data after the JSON value")
			}
		}
	}
	if tooBig := new(http.MaxBytesError); errors.As(err, &tooBig) {
		s.fail(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body over %d bytes", tooBig.Limit))
		return false
	}
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func (s *server) reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		s.http.errors.Add(1)
	}
}

func (s *server) fail(w http.ResponseWriter, code int, err error) {
	s.http.errors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
