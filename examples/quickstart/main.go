// Quickstart: run one SPMD program under all three message-passing tools
// on a simulated 1995 platform and compare the virtual execution times —
// the smallest possible use of the evaluation methodology.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"tooleval"
)

func main() {
	ctx := context.Background()
	sess := tooleval.NewSession() // owns its scheduler, cache, and stats
	const platformKey = "sun-ethernet"
	pf, err := tooleval.GetPlatform(platformKey)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Platform: %s — %s\n\n", pf.Name, pf.Description)

	// The program: rank 0 scatters a vector, everyone sums its share,
	// and a global sum (with PVM's manual fallback) combines the parts.
	body := func(c *tooleval.Ctx) (any, error) {
		const n = 64 * 1024
		share := n / c.Size()
		local := make([]float64, 1)
		for i := 0; i < share; i++ {
			local[0] += float64(c.Rank()*share + i)
		}
		c.Charge(float64(3 * share)) // the additions, on 1995 silicon
		total, err := sumAcross(c, local)
		if err != nil {
			return nil, err
		}
		return total[0], nil
	}

	fmt.Printf("%-10s %-14s %-12s\n", "tool", "virtual time", "result")
	for _, tool := range sess.Tools() {
		res, err := sess.Run(ctx, platformKey, tool, tooleval.RunConfig{Procs: 4}, body)
		if err != nil {
			log.Fatalf("%s: %v", tool, err)
		}
		fmt.Printf("%-10s %-14v %-12.0f\n", tool, res.Elapsed, res.Value.(float64))
	}
	fmt.Println("\nSame program, same platform, same answer — different tool overheads.")
	fmt.Println("That delta is what the multi-level methodology quantifies.")
}

// sumAcross sums local across all ranks in place, as the tools' own
// global operations do: on return local holds the sum on every rank.
func sumAcross(c *tooleval.Ctx, local []float64) ([]float64, error) {
	out, err := c.Comm.GlobalSumFloat64(local)
	if err == nil {
		return out, nil
	}
	if !errors.Is(err, tooleval.ErrNotSupported) {
		return nil, err
	}
	// PVM has no global operation (Table 1) — gather by hand like a 1995
	// application had to.
	const tag = 99
	if c.Rank() == 0 {
		acc := local[0]
		for i := 1; i < c.Size(); i++ {
			msg, err := c.Comm.Recv(tooleval.AnySource, tag)
			if err != nil {
				return nil, err
			}
			var v float64
			if _, err := fmt.Sscan(string(msg.Data), &v); err != nil {
				return nil, err
			}
			acc += v
		}
		res, err := c.Comm.Bcast(0, tag, []byte(fmt.Sprint(acc)))
		if err != nil {
			return nil, err
		}
		var total float64
		if _, err := fmt.Sscan(string(res), &total); err != nil {
			return nil, err
		}
		local[0] = total
		return local, nil
	}
	if err := c.Comm.Send(0, tag, []byte(fmt.Sprint(local[0]))); err != nil {
		return nil, err
	}
	res, err := c.Comm.Bcast(0, tag, nil)
	if err != nil {
		return nil, err
	}
	var total float64
	if _, err := fmt.Sscan(string(res), &total); err != nil {
		return nil, err
	}
	local[0] = total
	return local, nil
}
