package campaign

import (
	"repro/internal/engines"
	"repro/internal/explore"
)

// The parallel single-search engines self-register with the shared
// engine registry: any binary that links the campaign runner can build
// them by spec name next to the sequential engines. Worker counts
// default to GOMAXPROCS (0), seeds to 1 — the same defaults the spec
// grammar always had.
func init() {
	engines.Register(engines.Info{
		Name: "pdfs", Usage: "pdfs[:W]", Parallel: true,
		Summary: "parallel DFS over W workers (static schedule-tree partition)",
		Build: func(argv []string) (explore.Engine, error) {
			w, err := engines.IntArg(argv, 0, 0)
			if err != nil {
				return nil, err
			}
			return NewParallelDFS(w), nil
		},
	})
	engines.Register(engines.Info{
		Name: "pdpor", Usage: "pdpor[:W]", Parallel: true,
		Summary: "work-stealing parallel DPOR over W workers",
		Grid:    []string{"pdpor:1", "pdpor:2", "pdpor:4"},
		Build: func(argv []string) (explore.Engine, error) {
			w, err := engines.IntArg(argv, 0, 0)
			if err != nil {
				return nil, err
			}
			return NewParallelDPOR(w), nil
		},
	})
	engines.Register(engines.Info{
		Name: "prandom", Usage: "prandom[:seed[:W]]", Parallel: true,
		Summary: "parallel seeded random walk",
		Build: func(argv []string) (explore.Engine, error) {
			seed, err := engines.IntArg(argv, 0, 1)
			if err != nil {
				return nil, err
			}
			w, err := engines.IntArg(argv, 1, 0)
			if err != nil {
				return nil, err
			}
			return NewParallelRandomWalk(int64(seed), w), nil
		},
	})
}
