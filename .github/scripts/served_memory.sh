#!/usr/bin/env bash
# Served memory is window-bounded (DESIGN.md §4, §10): jitserver is fed the
# same generated stream for 10 and for 30 minutes of application time. For
# each run the resident high-water mark (VmHWM) must be flat in stream length
# — the two lengths within 10 % of each other — and under a cap, while the
# exit line's delivered=, cost= and (durable) checkpoints= fields match the
# pinned values, which fail on any change to what the server computes. Three
# rows: -mode jit -indexed on N=3 in memory only (20 MB) and durable (-dir, a
# checkpoint every minute; 25 MB), and -mode jit over linear-scan states on
# the N=4 clique_jit stream (16 500 kB: about 10 % over its measured
# high-water mark of 15 000 kB, so a looser graveyard floor fails it), where
# exact mode's graveyard is largest.
#
# Usage: .github/scripts/served_memory.sh   (Linux; builds into a temp dir,
# listens on 127.0.0.1:4641)
set -euo pipefail
cd "$(dirname "$0")/../.."

readonly port=4641

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/" ./cmd/jitserver ./cmd/jitgen

# peak <pid>: prints the highest VmHWM (kB) sampled until the process exits.
# The server may exit as soon as it has acked eos, so one read after the ack
# races its exit; sampling throughout and keeping the maximum does not.
peak() {
  local hwm=0 kb
  while kb=$(awk '/^VmHWM:/ {print $2; found = 1} END {exit !found}' "/proc/$1/status" 2>/dev/null); do
    ((kb > hwm)) && hwm=$kb
    sleep 0.05
  done
  echo "$hwm"
}

# The server's and the generator's flags for the rows that follow.
serve=(-n 3 -window 1 -mode jit -indexed)
gen=(-n 3 -dmax 12 -rate 4)

# probe <minutes> [jitserver flags]: prints "<VmHWM kB> <exit line>". Each
# run starts with an empty $bin/ck, the durable probe's checkpoint directory.
probe() {
  local minutes=$1
  shift
  rm -rf "$bin/ck"
  "$bin/jitserver" "${serve[@]}" -addr "127.0.0.1:$port" "$@" >"$bin/exit" 2>/dev/null &
  local pid=$! i
  peak "$pid" >"$bin/hwm" &
  local sampler=$!
  for i in $(seq 50); do
    { exec 3<>"/dev/tcp/127.0.0.1/$port"; } 2>/dev/null && break
    sleep 0.1
  done
  { echo '{"cmd":"ingest"}'
    "$bin/jitgen" "${gen[@]}" -minutes "$minutes" 2>/dev/null | awk -F, '{
      printf "{\"id\":%d,\"source\":%d,\"ts\":%d,\"vals\":[%s", NR, index("ABCDEFGH",$2)-1, $1, $3
      for (i = 4; i <= NF; i++) printf ",%s", $i; print "]}" }'
    echo '{"cmd":"eos"}'; } >&3
  head -2 <&3 >/dev/null
  exec 3>&-
  wait "$pid"
  wait "$sampler"
  echo "$(<"$bin/hwm") $(<"$bin/exit")"
}

status=0

# check <label> <cap kB> <fields> <want at 10> <want at 30> [jitserver flags]:
# probes both lengths and checks the pinned exit-line fields, the cap and the
# flatness.
check() {
  local label=$1 cap=$2 fields=$3
  local -A want=([10]=$4 [30]=$5) hwm=()
  shift 5
  local m kb line got f
  for m in 10 30; do
    read -r kb line <<<"$(probe "$m" "$@")"
    got=
    for f in $fields; do
      got+="${got:+ }$(grep -o "$f=[0-9]*" <<<"$line")"
    done
    hwm[$m]=$kb
    echo "$label minutes=$m VmHWM=${kb}kB $got"
    if [[ "$got" != "${want[$m]}" ]]; then
      echo "  want ${want[$m]}" >&2
      status=1
    fi
    if ((kb == 0 || kb > cap)); then
      echo "  VmHWM not sampled or above ${cap} kB" >&2
      status=1
    fi
  done
  local lo=$((hwm[10] < hwm[30] ? hwm[10] : hwm[30]))
  local hi=$((hwm[10] < hwm[30] ? hwm[30] : hwm[10]))
  if ((hi * 10 > lo * 11)); then
    echo "$label VmHWM not flat in stream length: ${hwm[10]} kB at 10 minutes, ${hwm[30]} kB at 30" >&2
    status=1
  fi
}

check memory 20480 "delivered cost" \
  "delivered=234324 cost=4750562" \
  "delivered=709505 cost=14874674"
check durable 25600 "delivered cost checkpoints" \
  "delivered=234324 cost=4750562 checkpoints=10" \
  "delivered=709505 cost=14874674 checkpoints=30" \
  -dir "$bin/ck" -every 1
serve=(-n 4 -window 1 -mode jit)
gen=(-n 4 -dmax 16 -rate 2.5)
check scan 16500 "delivered cost" \
  "delivered=1124 cost=72942667" \
  "delivered=3529 cost=231772834"
exit "$status"
