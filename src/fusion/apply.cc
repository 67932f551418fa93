#include "fusion/apply.hh"

#include "common/logging.hh"
#include "common/strutil.hh"
#include "workload/builder.hh"

namespace skipsim::fusion
{

const char *
applyModeName(ApplyMode mode)
{
    switch (mode) {
      case ApplyMode::LaunchOnly: return "launch-only";
      case ApplyMode::CollapseOps: return "collapse-ops";
    }
    panic("applyModeName: invalid ApplyMode");
}

AppliedFusion
applyFusion(const workload::OperatorGraph &graph,
            std::size_t chain_length, ApplyMode mode)
{
    if (chain_length < 2)
        fatal("applyFusion: chain length must be >= 2");

    workload::Timeline timeline = workload::flattenGraph(graph);

    // Kernel-position view of the timeline (memcpys excluded) plus the
    // mapping back to step indices.
    std::vector<std::string> sequence;
    std::vector<std::size_t> step_of_kernel;
    for (std::size_t i = 0; i < timeline.steps.size(); ++i) {
        if (!timeline.steps[i].launch.isMemcpy) {
            sequence.push_back(timeline.steps[i].launch.kernelName);
            step_of_kernel.push_back(i);
        }
    }

    AppliedFusion result;
    result.launchesBefore = sequence.size();

    // Start positions of deterministic (PS = 1) windows of the
    // requested length.
    std::vector<bool> deterministic =
        ProximityAnalyzer(sequence).deterministicStarts(chain_length);

    // Greedy non-overlapping occurrence selection (Eq. 7 accounting),
    // restricted to runs whose steps are contiguous in the timeline
    // (no memcpy interleaved inside a fused region).
    std::vector<bool> fused_start(sequence.size(), false);
    std::vector<bool> fused_member(sequence.size(), false);
    std::size_t i = 0;
    while (i + chain_length <= sequence.size()) {
        bool contiguous =
            step_of_kernel[i + chain_length - 1] - step_of_kernel[i] ==
            chain_length - 1;
        if (contiguous && deterministic[i]) {
            fused_start[i] = true;
            for (std::size_t j = i; j < i + chain_length; ++j)
                fused_member[j] = true;
            ++result.chainsApplied;
            i += chain_length;
        } else {
            ++i;
        }
    }

    // Rewrite the timeline.
    workload::Timeline rewritten;
    double pending_cpu = 0.0;
    std::size_t fused_id = 0;
    std::size_t kernel_pos = 0;
    for (std::size_t si = 0; si < timeline.steps.size(); ++si) {
        const workload::TimelineStep &step = timeline.steps[si];
        if (step.launch.isMemcpy) {
            workload::TimelineStep copy = step;
            copy.cpuBeforeNs += pending_cpu;
            pending_cpu = 0.0;
            rewritten.steps.push_back(std::move(copy));
            continue;
        }

        std::size_t pos = kernel_pos++;
        if (!fused_member[pos]) {
            workload::TimelineStep copy = step;
            copy.cpuBeforeNs += pending_cpu;
            pending_cpu = 0.0;
            rewritten.steps.push_back(std::move(copy));
            continue;
        }

        if (fused_start[pos]) {
            // Emit the fused kernel in place of the first member.
            workload::TimelineStep fused;
            fused.opName = "ps_fusion::launch";
            fused.cpuBeforeNs = pending_cpu + step.cpuBeforeNs;
            if (mode == ApplyMode::CollapseOps) {
                // The region's dispatch collapses into one compiled
                // call; interior segments are dropped entirely below.
                fused.cpuBeforeNs =
                    pending_cpu + workload::opCompiledCpuNs;
            }
            pending_cpu = 0.0;
            fused.launch.kernelName = strprintf(
                "ps_fused_L%zu_%zu", chain_length, fused_id++);
            // Concatenate member work in order.
            for (std::size_t j = pos; j < pos + chain_length; ++j) {
                const auto &member =
                    timeline.steps[step_of_kernel[j]].launch;
                for (const auto &w : member.work)
                    fused.launch.work.push_back(w);
            }
            rewritten.steps.push_back(std::move(fused));
        } else {
            // Interior member: its launch disappears; its CPU segment
            // survives in LaunchOnly mode and collapses otherwise.
            if (mode == ApplyMode::LaunchOnly)
                pending_cpu += step.cpuBeforeNs;
        }
    }
    rewritten.cpuTailNs = timeline.cpuTailNs + pending_cpu;

    result.graph = workload::timelineToGraph(rewritten);
    result.launchesAfter =
        result.launchesBefore - result.chainsApplied * (chain_length - 1);
    result.idealSpeedup = result.launchesAfter > 0
        ? static_cast<double>(result.launchesBefore) /
            static_cast<double>(result.launchesAfter)
        : 1.0;
    return result;
}

} // namespace skipsim::fusion
