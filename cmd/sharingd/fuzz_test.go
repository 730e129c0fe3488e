package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"sharing/internal/alloc"
	"sharing/internal/econ"
	"sharing/internal/market"
)

// fuzzPaths are the POST endpoints FuzzHandlers sends bodies to, chosen by
// the input's path byte.
var fuzzPaths = [...]string{"/v1/bid", "/v1/arrive", "/v1/depart", "/v1/phase"}

// FuzzHandlers POSTs arbitrary bytes to one of the JSON endpoints of an
// in-process server whose market holds one resident, vm0. Whatever the
// body, the handler must not panic and must answer 200, 400, 413 or 422; a
// 200 reply must decode as the endpoint's reply type; and a refused op (and
// any bid) must leave the published market and the op log as they were.
func FuzzHandlers(f *testing.F) {
	for _, c := range []struct {
		path uint8
		body string
	}{
		{0, `{"bench":"b","k":2}`},
		{0, `{"bench":"b","k":2} garbage`},
		{0, `{"bench":"b","k":2}{"bench":"b","k":2}`},
		{0, `{"bench":"b","market":{"name":"Market2"}}`},
		{0, `{"bench":"b","k":-1}`},
		{1, `{"name":"vm1","bench":"b","k":2}`},
		{1, `{"name":"vm1","bench":"b","k":2}]`},
		{1, `{"name":"vm0","bench":"b"}`},
		{2, `{"name":"vm0"}`},
		{2, `{"name":"nobody"}`},
		{3, `{"name":"vm0","phase":1}`},
		{3, `{"name":"vm0","phase":1}{}`},
		{3, `[]`},
	} {
		f.Add(c.path, []byte(c.body))
	}
	f.Fuzz(func(t *testing.T, path uint8, body []byte) {
		a := newTestAllocator(t, alloc.Params{Supply: econ.Supply{Slices: 64, Banks: 128}})
		if _, err := a.Arrive("vm0", "b", econ.Utility{K: 2, Budget: econ.DefaultBudget}); err != nil {
			t.Fatal(err)
		}
		srv := newServer(a)
		market0, log0 := marketJSON(t, srv), a.Log()

		p := fuzzPaths[int(path)%len(fuzzPaths)]
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, p, bytes.NewReader(body)))
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("POST %s %q: status %d", p, body, w.Code)
		}
		if w.Code == http.StatusOK {
			var rep any = new(receiptReply)
			if p == "/v1/bid" {
				rep = new(market.BidResult)
			}
			dec := json.NewDecoder(w.Body)
			dec.DisallowUnknownFields()
			if err := dec.Decode(rep); err != nil {
				t.Fatalf("POST %s %q: 200 reply does not decode: %v", p, body, err)
			}
		}
		if w.Code != http.StatusOK || p == "/v1/bid" {
			if got := marketJSON(t, srv); !bytes.Equal(got, market0) {
				t.Fatalf("POST %s %q (status %d) changed the market:\n%s\n%s", p, body, w.Code, market0, got)
			}
			if got := a.Log(); !reflect.DeepEqual(got, log0) {
				t.Fatalf("POST %s %q (status %d) changed the op log: %+v, was %+v", p, body, w.Code, got, log0)
			}
		}
	})
}

// marketJSON returns the server's GET /v1/market reply body.
func marketJSON(t *testing.T, srv *server) []byte {
	t.Helper()
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/market", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET /v1/market: status %d", w.Code)
	}
	return w.Body.Bytes()
}
