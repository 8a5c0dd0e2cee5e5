package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"rtdls/internal/metrics"
)

// statusRecorder captures the response status for accounting and logging.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so the SSE handler still sees an
// http.Flusher through the recorder.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TimeoutHeader is the request header carrying a per-request deadline in
// wall seconds (a float, e.g. "0.25"). The server propagates it as a
// context deadline, so a submission abandoned by its client stops before
// taking the scheduler lock and returns 499.
const TimeoutHeader = "X-Request-Timeout"

// RequestIDHeader carries the request correlation id. A client-supplied id
// is echoed back verbatim; otherwise the server generates one. Every
// structured request log record carries it.
const RequestIDHeader = "X-Request-ID"

// newRequestID returns a 16-hex-char random correlation id.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// routeLabel normalizes a request path onto the server's fixed route set so
// HTTP metrics stay bounded-cardinality no matter what clients request.
func routeLabel(path string) string {
	switch path {
	case "/v1/submit", "/v1/submit/batch", "/v1/stats", "/v1/events", "/healthz", "/metrics":
		return path
	}
	return "other"
}

// middleware wraps the mux with panic recovery, request/5xx accounting,
// request-id propagation, optional logging (structured or printf), HTTP
// metrics, and per-request deadline propagation.
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		s.requests.Add(1)

		reqID := r.Header.Get(RequestIDHeader)
		if reqID == "" {
			reqID = newRequestID()
		}
		rec.Header().Set(RequestIDHeader, reqID)

		if v := r.Header.Get(TimeoutHeader); v != "" {
			if secs, err := strconv.ParseFloat(v, 64); err == nil && secs > 0 {
				ctx, cancel := context.WithTimeout(r.Context(), time.Duration(secs*float64(time.Second)))
				defer cancel()
				r = r.WithContext(ctx)
			}
		}

		defer func() {
			if p := recover(); p != nil {
				if rec.status == 0 {
					http.Error(rec, "internal server error", http.StatusInternalServerError)
				}
				if s.logger != nil {
					s.logger.Error("panic",
						slog.String("method", r.Method), slog.String("path", r.URL.Path),
						slog.String("request_id", reqID), slog.Any("panic", p),
						slog.String("stack", string(debug.Stack())))
				}
			}
			if rec.status >= 500 {
				s.fivexx.Add(1)
			}
			elapsed := time.Since(start)
			if s.reg != nil {
				route := routeLabel(r.URL.Path)
				s.reg.Counter("rtdls_http_requests_total",
					"HTTP requests by route and status code.",
					metrics.Labels{"route": route, "status": strconv.Itoa(rec.status)}).Inc()
				s.reg.Histogram("rtdls_http_request_seconds",
					"HTTP request duration in seconds by route.",
					metrics.Labels{"route": route}).Observe(elapsed.Seconds())
			}
			if s.logger != nil {
				s.logger.Info("request",
					slog.String("method", r.Method), slog.String("path", r.URL.Path),
					slog.Int("status", rec.status), slog.Duration("duration", elapsed),
					slog.String("request_id", reqID))
			}
		}()
		next.ServeHTTP(rec, r)
	})
}
