// Topology worst case (the paper's §IV-D): on a linear network with
// strictly decreasing weights, LocalLeader election serializes and
// Algorithm 3 needs Θ(N) mini-rounds, while a random network of the same
// size converges in a small constant number. This is exactly why the scheme
// caps the decision at D mini-rounds and accepts the Theorem 4
// α-approximation.
package main

import (
	"fmt"
	"log"

	"multihopbandit"
	"multihopbandit/internal/extgraph"
	"multihopbandit/internal/protocol"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const n = 60

	// Worst case: a line of users, one channel, weights decreasing from
	// head to tail so only one LocalLeader can emerge per mini-round.
	linear, err := multihopbandit.LinearNetwork(n, 1, 1)
	if err != nil {
		return err
	}
	linExt, err := extgraph.Build(linear.G, 1)
	if err != nil {
		return err
	}
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = float64(n - i)
	}
	linRT, err := protocol.New(protocol.Config{Ext: linExt, R: 2, D: 0})
	if err != nil {
		return err
	}
	linRes, err := linRT.NewDecider().Decide(weights, nil)
	if err != nil {
		return err
	}
	fmt.Printf("linear network, decreasing weights: %d mini-rounds to mark all %d vertices\n",
		linRes.MiniRounds, n)
	fmt.Printf("  leaders per mini-round: %v\n", linRes.LeadersByMiniRound)

	// Contrast: a random network with random weights converges fast.
	seed := multihopbandit.NewSeed(9)
	random, err := multihopbandit.RandomNetwork(multihopbandit.RandomNetworkConfig{N: n}, seed)
	if err != nil {
		return err
	}
	rndExt, err := extgraph.Build(random.G, 1)
	if err != nil {
		return err
	}
	rndWeights := make([]float64, n)
	for i := range rndWeights {
		rndWeights[i] = seed.Float64()
	}
	rndRT, err := protocol.New(protocol.Config{Ext: rndExt, R: 2, D: 0})
	if err != nil {
		return err
	}
	rndRes, err := rndRT.NewDecider().Decide(rndWeights, nil)
	if err != nil {
		return err
	}
	fmt.Printf("\nrandom network, random weights: %d mini-rounds to mark all %d vertices\n",
		rndRes.MiniRounds, n)
	fmt.Printf("  leaders per mini-round: %v\n", rndRes.LeadersByMiniRound)

	// What the D cap costs on the worst case: run with D=4 and compare
	// committed weight to the converged run.
	capped, err := protocol.New(protocol.Config{Ext: linExt, R: 2, D: 4})
	if err != nil {
		return err
	}
	cappedRes, err := capped.NewDecider().Decide(weights, nil)
	if err != nil {
		return err
	}
	full := linRes.WeightByMiniRound[len(linRes.WeightByMiniRound)-1]
	got := cappedRes.WeightByMiniRound[len(cappedRes.WeightByMiniRound)-1]
	fmt.Printf("\nD=4 cap on the linear worst case: %.0f of %.0f weight committed (%.0f%%)\n",
		got, full, 100*got/full)
	fmt.Println("on random networks the cap loses (almost) nothing — see examples/convergence")
	return nil
}
