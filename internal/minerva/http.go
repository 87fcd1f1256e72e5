package minerva

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"iqn/internal/telemetry"
)

// This file gives a peer the small HTTP surface the MINERVA prototype
// exposed to users: a search endpoint and a status endpoint. It is
// intentionally independent of the peer-to-peer transport — the HTTP
// side faces the peer's human (or service) user, the RPC side faces the
// network.

// httpSearchResponse is the JSON shape of /search.
type httpSearchResponse struct {
	Query      []string       `json:"query"`
	Method     string         `json:"method"`
	Plan       []string       `json:"plan"`
	Candidates int            `json:"candidates"`
	Results    []httpResult   `json:"results"`
	Steps      []httpPlanStep `json:"steps,omitempty"`
	PerPeer    map[string]int `json:"perPeer,omitempty"`
	// Degraded, BudgetExpired, Rerouted and Errors carry SearchResult's
	// account of lost peers, so a partial answer never looks healthy.
	Degraded      bool            `json:"degraded"`
	BudgetExpired bool            `json:"budgetExpired"`
	Rerouted      []string        `json:"rerouted,omitempty"`
	Errors        []httpPeerError `json:"errors,omitempty"`
}

// httpPeerError is one PerPeerError of a degraded search.
type httpPeerError struct {
	Peer        string `json:"peer"`
	Err         string `json:"err"`
	Unreachable bool   `json:"unreachable"`
	Replacement string `json:"replacement,omitempty"`
}

type httpResult struct {
	DocID uint64  `json:"docId"`
	Score float64 `json:"score"`
}

type httpPlanStep struct {
	Peer    string  `json:"peer"`
	Quality float64 `json:"quality"`
	Novelty float64 `json:"novelty"`
	Covered float64 `json:"covered"`
}

// httpStatusResponse is the JSON shape of /status.
type httpStatusResponse struct {
	Peer          string `json:"peer"`
	Docs          int    `json:"docs"`
	Terms         int    `json:"terms"`
	QueriesServed int64  `json:"queriesServed"`
	Successor     string `json:"successor"`
	Predecessor   string `json:"predecessor"`
}

// HTTPHandler returns the peer's HTTP API:
//
//	GET /search?q=<terms>&peers=<n>&k=<n>&method=iqn|cori|prior&conj=1
//	GET /status
//	GET /metrics            (when Config.Metrics is set)
//	GET /debug/pprof/...    (when Config.Metrics is set)
//
// Search terms are space-separated in q. Errors return JSON with an
// "error" field and a 4xx/5xx status. When the peer was built with a
// telemetry registry, /metrics serves the live snapshot as JSON and the
// standard pprof profiles are mounted under /debug/pprof/ — the live
// introspection surface; peers without a registry expose neither.
func (p *Peer) HTTPHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/search", func(w http.ResponseWriter, r *http.Request) {
		terms := strings.Fields(r.URL.Query().Get("q"))
		if len(terms) == 0 {
			httpError(w, http.StatusBadRequest, "missing or empty q parameter")
			return
		}
		opts := SearchOptions{
			K:        intParam(r, "k", 20),
			MaxPeers: intParam(r, "peers", 5),
			MergeK:   intParam(r, "k", 20),
		}
		switch r.URL.Query().Get("method") {
		case "", "iqn":
			opts.Method = MethodIQN
		case "cori":
			opts.Method = MethodCORI
		case "prior":
			opts.Method = MethodPrior
		default:
			httpError(w, http.StatusBadRequest, "unknown method")
			return
		}
		if r.URL.Query().Get("conj") == "1" {
			opts.Conjunctive = true
		}
		res, err := p.SearchContext(r.Context(), terms, opts)
		if err != nil {
			httpError(w, http.StatusBadGateway, err.Error())
			return
		}
		resp := httpSearchResponse{
			Query:         terms,
			Method:        opts.Method.String(),
			Candidates:    res.Candidates,
			PerPeer:       map[string]int{},
			Degraded:      res.Degraded(),
			BudgetExpired: res.BudgetExpired,
		}
		for _, peer := range res.Rerouted {
			resp.Rerouted = append(resp.Rerouted, string(peer))
		}
		for _, e := range res.Errors {
			resp.Errors = append(resp.Errors, httpPeerError{
				Peer: string(e.Peer), Err: e.Err, Unreachable: e.Unreachable, Replacement: string(e.Replacement),
			})
		}
		for _, peer := range res.Plan.Peers {
			resp.Plan = append(resp.Plan, string(peer))
		}
		for _, s := range res.Plan.Steps {
			resp.Steps = append(resp.Steps, httpPlanStep{
				Peer: string(s.Peer), Quality: s.Quality, Novelty: s.Novelty, Covered: s.Covered,
			})
		}
		for peer, n := range res.PerPeer {
			resp.PerPeer[string(peer)] = n
		}
		for _, hit := range res.Results {
			resp.Results = append(resp.Results, httpResult{DocID: hit.DocID, Score: hit.Score})
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		status := httpStatusResponse{
			Peer:          p.Name(),
			QueriesServed: p.QueriesServed(),
			Successor:     p.Node().Successor().Addr,
			Predecessor:   p.Node().Predecessor().Addr,
		}
		if idx := p.Index(); idx != nil {
			status.Docs = idx.NumDocs()
			status.Terms = idx.TermSpaceSize()
		}
		writeJSON(w, http.StatusOK, status)
	})
	if p.cfg.Metrics != nil {
		mux.Handle("/metrics", telemetry.Handler(p.cfg.Metrics))
		mux.Handle("/debug/pprof/", telemetry.Handler(p.cfg.Metrics))
	}
	return mux
}

// intParam parses a positive integer query parameter with a default.
func intParam(r *http.Request, name string, def int) int {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		return def
	}
	return n
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// SaveIndex persists the peer's local index to a file so a restart can
// skip re-indexing. Either way the file is an IQDX index: an in-memory
// index writes one (ir.SaveFile), a disk-backed index copies its
// on-disk files.
func (p *Peer) SaveIndex(path string) error {
	idx := p.Index()
	if idx == nil {
		return fmt.Errorf("minerva: %s has no index to save", p.name)
	}
	saver, ok := idx.(interface{ SaveFile(string) error })
	if !ok {
		return fmt.Errorf("minerva: index type %T cannot be saved", idx)
	}
	return saver.SaveFile(path)
}
