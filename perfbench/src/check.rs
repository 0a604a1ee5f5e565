//! The independent output check: every answered schedule is parsed and run
//! again through a full simulation (`gpusim::simulate_launch`, with no eval
//! cache and no delta engine) and compared with a fresh simulation of the
//! `-O3` schedule the pipeline compiled for the same request.

use cuasmrl::{ActionSpace, OptimizationReport};
use gpusim::{GpuConfig, LaunchConfig, MeasureOptions};
use kernels::{Autotuner, CompiledKernel, ConfigSpace, KernelConfig, KernelSpec, TritonPipeline};
use sass::{ControlCode, Item, Program};

/// An answer's bytes as the hit-equals-miss comparisons see them.
pub fn report_bytes(report: &OptimizationReport) -> String {
    serde_json::to_string(report).unwrap_or_default()
}

/// Autotunes and compiles `spec` exactly as the optimizer's front half
/// does: the winning configuration plus the compiled kernel.
pub fn compile_spec(
    gpu: &GpuConfig,
    spec: &KernelSpec,
    space: &ConfigSpace,
    tune: &MeasureOptions,
) -> (KernelConfig, CompiledKernel) {
    let tuning = Autotuner::new(gpu.clone())
        .with_options(tune.clone())
        .tune(spec, space);
    let compiled = TritonPipeline::new(gpu.clone()).compile(spec, &tuning.best);
    (tuning.best, compiled)
}

/// The `-O3` schedule of one request and everything needed to judge an
/// answer to it.
#[derive(Debug, Clone)]
pub struct Reference {
    gpu: GpuConfig,
    launch: LaunchConfig,
    measure: MeasureOptions,
    space: ActionSpace,
    o3: Program,
    o3_digest: u64,
    o3_us: f64,
}

impl Reference {
    /// Simulates the `-O3` schedule once, in full.
    pub fn new(
        gpu: &GpuConfig,
        o3: Program,
        launch: LaunchConfig,
        measure: MeasureOptions,
        space: ActionSpace,
    ) -> Reference {
        let m = gpusim::measure(gpu, &o3, &launch, &measure);
        Reference {
            gpu: gpu.clone(),
            launch,
            measure,
            space,
            o3,
            o3_digest: m.run.sm.output_digest,
            o3_us: m.mean_us,
        }
    }

    pub fn gpu(&self) -> &GpuConfig {
        &self.gpu
    }

    pub fn launch(&self) -> &LaunchConfig {
        &self.launch
    }

    pub fn space(&self) -> ActionSpace {
        self.space
    }

    /// Checks one answer, returning its parsed schedule or the first
    /// property it violates.
    pub fn check(&self, report: &OptimizationReport) -> Result<Program, String> {
        let program: Program = report
            .optimized_listing
            .parse()
            .map_err(|err| format!("listing does not parse: {err}"))?;
        let run = gpusim::simulate_launch(&self.gpu, &program, &self.launch);
        if !run.sm.completed {
            return Err("the optimized schedule did not complete".into());
        }
        if run.sm.hazards != 0 {
            return Err(format!(
                "the optimized schedule has {} hazards",
                run.sm.hazards
            ));
        }
        if run.sm.output_digest != self.o3_digest {
            return Err(format!(
                "output digest {:#x} differs from the -O3 digest {:#x}",
                run.sm.output_digest, self.o3_digest
            ));
        }
        let optimized_us = gpusim::measurement_from_run(run, &self.measure).mean_us;
        if optimized_us.to_bits() != report.optimized_us.to_bits() {
            return Err(format!(
                "re-simulated runtime {optimized_us} us differs from the reported {} us",
                report.optimized_us
            ));
        }
        if self.o3_us.to_bits() != report.baseline_us.to_bits() {
            return Err(format!(
                "-O3 runtime {} us differs from the reported baseline {} us",
                self.o3_us, report.baseline_us
            ));
        }
        if report.speedup < 1.0 || report.speedup.is_nan() {
            return Err(format!("speedup {} is below 1", report.speedup));
        }
        if report.speedup.to_bits() != (report.baseline_us / report.optimized_us).to_bits() {
            return Err(format!(
                "speedup {} is not baseline_us / optimized_us",
                report.speedup
            ));
        }
        if !report.verified {
            return Err("the report is not marked verified".into());
        }
        self.check_edits(&program)?;
        Ok(program)
    }

    /// The answer may differ from `-O3` only by edits the action space
    /// allows: labels stay put and every basic block holds the same
    /// instructions, reordered; under [`ActionSpace::Rich`] their control
    /// fields (stall, barrier waits, reuse hints) may change as well.
    fn check_edits(&self, program: &Program) -> Result<(), String> {
        let shape = |p: &Program| -> Vec<Option<String>> {
            p.items()
                .iter()
                .map(|item| match item {
                    Item::Label(name) => Some(name.clone()),
                    Item::Instr(_) => None,
                })
                .collect()
        };
        if shape(program) != shape(&self.o3) {
            return Err("labels or instruction count differ from -O3".into());
        }
        let normalize = |p: &Program| -> Vec<String> {
            p.instructions()
                .map(|inst| {
                    let mut inst = inst.clone();
                    if self.space == ActionSpace::Rich {
                        *inst.control_mut() = ControlCode::default();
                        for operand in 0..inst.operands().len() {
                            inst.set_operand_reuse(operand, false);
                        }
                    }
                    inst.to_string()
                })
                .collect()
        };
        let ours = normalize(program);
        let o3 = normalize(&self.o3);
        for block in self.o3.basic_blocks() {
            let mut a = ours[block.start..block.end].to_vec();
            let mut b = o3[block.start..block.end].to_vec();
            a.sort();
            b.sort();
            if a != b {
                return Err(format!(
                    "instructions {}..{} are not a reordering of the -O3 block{}",
                    block.start,
                    block.end,
                    if self.space == ActionSpace::Rich {
                        ""
                    } else {
                        " (control fields may not change in the swap space)"
                    }
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::KernelKind;

    fn softmax() -> (GpuConfig, Program, LaunchConfig, MeasureOptions) {
        let gpu = GpuConfig::a100();
        let spec = KernelSpec::scaled(KernelKind::Softmax, 16);
        let tune = MeasureOptions {
            warmup: 0,
            repeats: 2,
            noise_std: 0.0,
            seed: 0,
        };
        let (_, compiled) = compile_spec(&gpu, &spec, &ConfigSpace::small(), &tune);
        let program = compiled.cubin.kernel_program(&compiled.name).unwrap();
        (gpu, program, compiled.launch, tune)
    }

    /// A report that is internally consistent for `program`: its runtime
    /// and speedup are what a full simulation of `program` gives, so only
    /// the properties under test can reject it.
    fn consistent_report(
        reference: &Reference,
        gpu: &GpuConfig,
        program: &Program,
    ) -> OptimizationReport {
        let m = gpusim::measure(gpu, program, &reference.launch, &reference.measure);
        OptimizationReport {
            kernel: "softmax".into(),
            baseline_us: reference.o3_us,
            optimized_us: m.mean_us,
            speedup: reference.o3_us / m.mean_us,
            verified: true,
            optimized_listing: program.to_string(),
            moves: Vec::new(),
        }
    }

    #[test]
    fn accepts_the_unmodified_schedule() {
        let (gpu, o3, launch, measure) = softmax();
        let reference =
            Reference::new(&gpu, o3.clone(), launch, measure, ActionSpace::AdjacentSwap);
        let report = consistent_report(&reference, &gpu, &o3);
        assert_eq!(reference.check(&report), Ok(o3));
    }

    #[test]
    fn rejects_two_dependent_instructions_swapped() {
        let (gpu, o3, launch, measure) = softmax();
        let reference =
            Reference::new(&gpu, o3.clone(), launch, measure, ActionSpace::AdjacentSwap);
        // The first adjacent pair in one basic block where the lower
        // instruction, a memory access, reads a register the upper one
        // writes. (A dependence on `S2R Rx, SR_CTAID.X` would not do: the
        // launch simulates block 0, whose CTA id equals a register's
        // initial value, so that swap is invisible to any simulation.)
        let insts: Vec<_> = o3.instructions().cloned().collect();
        let upper = (0..insts.len() - 1)
            .find(|&i| {
                o3.block_of(i).is_some_and(|b| b.contains(i + 1))
                    && insts[i + 1].opcode().is_memory()
                    && insts[i]
                        .defs()
                        .iter()
                        .any(|d| insts[i + 1].uses().contains(d))
            })
            .expect("softmax has a dependent pair");
        let mut corrupted = o3.clone();
        corrupted.swap_instructions(upper, upper + 1).unwrap();
        let mut report = consistent_report(&reference, &gpu, &corrupted);
        // Claim no slowdown, so the speedup rule cannot be what rejects it.
        report.speedup = report.speedup.max(1.0);
        let err = reference
            .check(&report)
            .expect_err("a dependence violation must be rejected");
        assert!(
            err.contains("hazard") || err.contains("digest") || err.contains("complete"),
            "rejected for the wrong reason: {err}"
        );
    }

    #[test]
    fn rejects_a_control_field_change_in_the_swap_space() {
        let (gpu, o3, launch, measure) = softmax();
        let mut retuned = o3.clone();
        let stall = retuned.instruction(0).unwrap().control().stall();
        retuned
            .instruction_mut(0)
            .unwrap()
            .control_mut()
            .set_stall(stall + 1);
        let swap = Reference::new(
            &gpu,
            o3.clone(),
            launch.clone(),
            measure.clone(),
            ActionSpace::AdjacentSwap,
        );
        let report = consistent_report(&swap, &gpu, &retuned);
        assert!(
            swap.check_edits(&retuned).is_err(),
            "{:?}",
            swap.check(&report)
        );
        let rich = Reference::new(&gpu, o3, launch, measure, ActionSpace::Rich);
        assert_eq!(rich.check_edits(&retuned), Ok(()));
    }

    #[test]
    fn rejects_a_misreported_runtime() {
        let (gpu, o3, launch, measure) = softmax();
        let reference =
            Reference::new(&gpu, o3.clone(), launch, measure, ActionSpace::AdjacentSwap);
        let mut report = consistent_report(&reference, &gpu, &o3);
        report.optimized_us *= 0.9;
        report.speedup = report.baseline_us / report.optimized_us;
        assert!(reference
            .check(&report)
            .unwrap_err()
            .contains("re-simulated runtime"));
    }
}
