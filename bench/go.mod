// The benchmark is a module of its own so the repo's go build/test ./... do
// not see it; the module path sits under repro/ so that it may import
// repro/internal/..., and the replace line builds against this checkout.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
