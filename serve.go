package exadla

import "exadla/internal/serve"

// ServeConfig configures the solve service started by Serve: HTTP address,
// executor lanes, admission budgets, factorization-cache capacity, and the
// batched small-problem fast path, which fuses the tiny solves already
// queued and never waits for more. The zero value gets working defaults.
type ServeConfig = serve.Config

// SolveServer is a running dense-linear-algebra service: factorize/solve
// jobs over HTTP (or in-process via Submit), per-tenant admission control
// with load shedding, an LRU factorization cache keyed by matrix
// fingerprint, and batched execution for floods of tiny problems.
type SolveServer = serve.Server

// ServeJob is one submitted problem: an op, its dimensions, and either the
// operator matrix or a fingerprint referencing a factor already resident in
// the server's cache.
//
// Submit takes ownership of A and B: the server may overwrite both until
// the job ends, and then drops them. A batched small solve factors the
// caller's A in place and solves into the caller's B; every other job
// copies them into tiles. Pass copies of operands still needed after
// Submit.
type ServeJob = serve.JobSpec

// ServeStatus is a job's observable state: lifecycle, task progress
// (counted as each of the job's tasks returns), queue wait, cache
// disposition, and fingerprint.
type ServeStatus = serve.Status

// ServeShedError is the admission-control rejection carrying the
// Retry-After hint (HTTP 429 on the wire).
type ServeShedError = serve.ShedError

// ServeNonFiniteError rejects a job whose operand holds a NaN or an
// infinity (HTTP 400 on the wire).
type ServeNonFiniteError = serve.NonFiniteError

// ServeOp names a job kind accepted by the solve service.
type ServeOp = serve.Op

// Job kinds accepted by the solve service.
const (
	ServeSolveSPD  = serve.OpSolveSPD
	ServeFactorSPD = serve.OpFactorSPD
	ServeSolveLU   = serve.OpSolveLU
	ServeFactorLU  = serve.OpFactorLU
)

// Serve starts a dense-linear-algebra service. With cfg.Addr set it listens
// there (POST /jobs, GET /jobs/{id}, GET /jobs/{id}/result, GET /metrics,
// GET /healthz); with an empty Addr the server runs in-process only and is
// driven through its Submit/WaitJob/Result methods. Call Close to drain and
// stop it.
func Serve(cfg ServeConfig) (*SolveServer, error) {
	return serve.New(cfg)
}
