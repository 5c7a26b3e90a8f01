#!/bin/sh
# Runs the fault-aware CLI commands whose outputs `results/fault_cli.sha256`
# pins: for each run, its stdout goes to OUTDIR/NAME.out and its exit code
# to OUTDIR/NAME.exit (trace runs also write their series CSV and incident
# JSON there). Check the pins with
#
#   scripts/fault_cli.sh target/release/irnet fault_cli
#   (cd fault_cli && sha256sum -c ../results/fault_cli.sha256)
#
# The flags are CI's fault-smoke and soak-smoke flags on the shipped
# 128-switch scenarios.
set -u
irnet=$(realpath "$1")
out=$(realpath -m "$2")
cd "$(dirname "$0")/.."
mkdir -p "$out"
net="--switches 128 --ports 4 --seed 1"
sim="--rate 0.3 --packet-len 32 --warmup 1000 --measure 6000"

# run NAME ARGS...: stdout to NAME.out, exit code to NAME.exit.
run() {
    name=$1
    shift
    "$irnet" "$@" > "$out/$name.out" 2> /dev/null
    echo $? > "$out/$name.exit"
}

for strat in full incremental; do
    run "faults_link_failure_$strat" faults $net $sim --repair $strat \
        --scenario scenarios/link_failure_128.json --json
done
run faults_link_recovery faults $net $sim \
    --scenario scenarios/link_recovery_128.json --json
run faults_flapping_link faults $net $sim --hold 500 \
    --scenario scenarios/flapping_link_128.json --json
run faults_rolling_links faults $net $sim \
    --scenario scenarios/rolling_links_128.json --json
run faults_infeasible faults $net $sim \
    --scenario scenarios/infeasible_128.json --json
run faults_rolling_links_text faults $net $sim \
    --scenario scenarios/rolling_links_128.json
run soak soak $net --events 3 --rate 0.1 --packet-len 16 \
    --warmup 500 --measure 4000 --chaos-seed 42
run trace_link_failure trace $net $sim \
    --scenario scenarios/link_failure_128.json \
    --events 65536 --sample-every 500 --series "$out/trace_link_failure.series.csv"
run trace_no_repair trace $net $sim \
    --scenario scenarios/link_failure_128.json --no-repair \
    --events 4096 --incident "$out/trace_no_repair.incident.json"
for scenario in rolling_links infeasible; do
    run "analyze_$scenario" analyze $net \
        --scenario "scenarios/${scenario}_128.json" --json
done
