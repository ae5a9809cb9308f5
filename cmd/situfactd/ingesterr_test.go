package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	situfact "repro"
	"repro/internal/middleware"
)

// TestIngestFailureMapping pins the one error → answer mapping of the three
// ingest handlers, sentinel by sentinel, in both forms: a request refused
// whole (POST /v1/tuples, DELETE /v1/tuples/{id}, a batch before any row),
// and a batch part of which committed. Each error arrives wrapped the way
// the pool wraps it. Status 0 is "nothing written": the client hung up.
func TestIngestFailureMapping(t *testing.T) {
	row := func(err error) error { return fmt.Errorf("situfact: pool shard 1, row 3: %w", err) }
	const deadlineBody = `{"error":"overloaded: request deadline exceeded waiting for ingest queue space"}` + "\n"
	const committed = `{"arrivals":[{"id":"0:7","shard":0,"tuple_id":7,"fact_count":2},null],"error":`
	for _, tc := range []struct {
		name    string
		err     error
		partial bool

		status     int
		retryAfter string
		verdict    string
		body       string
	}{
		{"canceled", fmt.Errorf("enqueue canceled: %w", context.Canceled), false,
			0, "", "canceled", ""},
		{"deadline", fmt.Errorf("enqueue canceled: %w", context.DeadlineExceeded), false,
			http.StatusServiceUnavailable, "1", "deadline", deadlineBody},
		{"wal failed", fmt.Errorf("situfact: pool: %w: disk full", situfact.ErrWALFailed), false,
			http.StatusServiceUnavailable, "1", "", `{"error":"pool: wal failure: disk full"}` + "\n"},
		{"not found", fmt.Errorf("situfact: Delete: tuple 9: %w", situfact.ErrNotFound), false,
			http.StatusNotFound, "", "", `{"error":"Delete: tuple 9: not found"}` + "\n"},
		{"already deleted", fmt.Errorf("situfact: Delete: tuple 9: %w", situfact.ErrAlreadyDeleted), false,
			http.StatusConflict, "", "", `{"error":"Delete: tuple 9: already deleted"}` + "\n"},
		{"delete unsupported", fmt.Errorf("situfact: Delete requires the BottomUp family: %w", situfact.ErrDeleteUnsupported), false,
			http.StatusBadRequest, "", "", `{"error":"Delete requires the BottomUp family: delete unsupported"}` + "\n"},
		{"row too large", fmt.Errorf("situfact: pool: %w (the WAL caps one record at 16 MiB)", situfact.ErrRowTooLarge), false,
			http.StatusBadRequest, "", "", `{"error":"pool: row too large to journal (the WAL caps one record at 16 MiB)"}` + "\n"},
		{"validation", errors.New("situfact: pool: 2 dimension values for 3 attributes"), false,
			http.StatusBadRequest, "", "", `{"error":"pool: 2 dimension values for 3 attributes"}` + "\n"},

		// The mid-batch hang-up is answered like the hang-up before any row,
		// not as an engine failure (500) written to a closed connection.
		{"partial canceled", errors.Join(row(fmt.Errorf("enqueue canceled: %w", context.Canceled))), true,
			0, "", "canceled", ""},
		{"partial deadline", errors.Join(row(fmt.Errorf("enqueue canceled: %w", context.DeadlineExceeded))), true,
			http.StatusServiceUnavailable, "1", "deadline", committed + `"pool shard 1, row 3: enqueue canceled: context deadline exceeded"}` + "\n"},
		{"partial wal failed", errors.Join(row(situfact.ErrWALFailed)), true,
			http.StatusServiceUnavailable, "1", "", committed + `"pool shard 1, row 3: wal failure"}` + "\n"},
		// Nothing but the three above has a meaning mid batch: an engine failed.
		{"partial not found", errors.Join(row(situfact.ErrNotFound)), true,
			http.StatusInternalServerError, "", "", committed + `"pool shard 1, row 3: not found"}` + "\n"},
		{"partial already deleted", errors.Join(row(situfact.ErrAlreadyDeleted)), true,
			http.StatusInternalServerError, "", "", committed + `"pool shard 1, row 3: already deleted"}` + "\n"},
		{"partial delete unsupported", errors.Join(row(situfact.ErrDeleteUnsupported)), true,
			http.StatusInternalServerError, "", "", committed + `"pool shard 1, row 3: delete unsupported"}` + "\n"},
		{"partial row too large", errors.Join(row(situfact.ErrRowTooLarge)), true,
			http.StatusInternalServerError, "", "", committed + `"pool shard 1, row 3: row too large to journal"}` + "\n"},
		{"partial engine failure", errors.Join(row(errors.New("table full"))), true,
			http.StatusInternalServerError, "", "", committed + `"pool shard 1, row 3: table full"}` + "\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var partial *batchResponse
			if tc.partial {
				partial = &batchResponse{Arrivals: []*arrivalResponse{{ID: "0:7", TupleID: 7, FactCount: 2}, nil}}
			}
			r := middleware.WithVerdict(httptest.NewRequest(http.MethodPost, "/v1/tuples:batch", nil))
			w := httptest.NewRecorder()
			w.Code = 0 // the recorder's default is 200; 0 shows that nothing was written
			writeIngestErr(w, r, tc.err, partial)
			if w.Code != tc.status {
				t.Errorf("status %d, want %d", w.Code, tc.status)
			}
			if got := w.Header().Get("Retry-After"); got != tc.retryAfter {
				t.Errorf("Retry-After %q, want %q", got, tc.retryAfter)
			}
			if got := middleware.Verdict(r); got != tc.verdict {
				t.Errorf("verdict %q, want %q", got, tc.verdict)
			}
			if got := w.Body.String(); got != tc.body {
				t.Errorf("body %q, want %q", got, tc.body)
			}
		})
	}
}
