package api

import (
	"errors"
	"net/http"

	"repro/internal/core"
)

// The two halves of the error taxonomy live here, side by side, so the
// CLI and the HTTP surface can never classify the same sentinel
// differently. cmd/qmkp documents the exit codes; the daemon documents
// the statuses; TestStatusTablesPinned pins both to the sentinels.
//
//	sentinel            exit  HTTP
//	(success)            0    200
//	ErrBadSpec           2    400  malformed request, k/T out of range
//	ErrTooLarge          3    413  past a size cap: the gate simulator's,
//	                              naive's, qaMKP's shots or Δt, or the
//	                              daemon's vertex or request-body cap
//	ErrInfeasible        4    200  verified absence IS the answer; it is
//	                              delivered in-band with error_kind set
//	ErrCanceled          5    408  deadline or cancellation; the body
//	                              still carries the best-so-far result
//	anything else        1    500

// ErrorKind string constants carried in SolveResult.ErrorKind.
const (
	KindBadSpec    = "bad_spec"
	KindTooLarge   = "too_large"
	KindInfeasible = "infeasible"
	KindCanceled   = "canceled"
	KindInternal   = "internal"

	// KindBusy is transport-level, not a solver sentinel: the daemon's
	// bounded queue turned the request away (HTTP 429) before any solve
	// began, so no exit code maps to it.
	KindBusy = "busy"
)

// ExitCode maps an error from the solver stack to the documented
// cmd/qmkp exit codes (0 on nil). Extracted from cmd/qmkp/main.go so
// the daemon and CLI share one table.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, core.ErrBadSpec):
		return 2
	case errors.Is(err, core.ErrTooLarge):
		return 3
	case errors.Is(err, core.ErrInfeasible):
		return 4
	case errors.Is(err, core.ErrCanceled):
		return 5
	}
	return 1
}

// HTTPStatus maps the same sentinels to response statuses. Verified
// infeasibility is 200: the solver answered the question ("no such
// plex, with full cost accounting"), so the answer travels in-band with
// ErrorKind = KindInfeasible rather than as a transport failure.
func HTTPStatus(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, core.ErrBadSpec):
		return http.StatusBadRequest
	case errors.Is(err, core.ErrTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, core.ErrInfeasible):
		return http.StatusOK
	case errors.Is(err, core.ErrCanceled):
		return http.StatusRequestTimeout
	}
	return http.StatusInternalServerError
}

// ErrorKind classifies an error as the wire taxonomy string ("" on
// nil).
func ErrorKind(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, core.ErrBadSpec):
		return KindBadSpec
	case errors.Is(err, core.ErrTooLarge):
		return KindTooLarge
	case errors.Is(err, core.ErrInfeasible):
		return KindInfeasible
	case errors.Is(err, core.ErrCanceled):
		return KindCanceled
	}
	return KindInternal
}

// SetError stamps the error taxonomy onto a result (no-op on nil err).
func (r *SolveResult) SetError(err error) {
	if err == nil {
		return
	}
	r.ErrorKind = ErrorKind(err)
	r.Error = err.Error()
}
