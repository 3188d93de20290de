//! Workload configurations (Table 2 of the paper).
//!
//! Every builder takes a config carrying the paper's setting plus a
//! `scale` knob: `scale = 1.0` reproduces the published configuration;
//! smaller values shrink depth and width proportionally so tests and
//! quick experiments stay fast. Scaling preserves structure (residual
//! topology, skip connections, attention heads), which is what the
//! optimizer's behaviour depends on.

use crate::{bert, gpt, resnet, unet, unetpp, vit};
use magis_graph::grad::TrainingGraph;
use magis_graph::tensor::DType;

/// Scales a dimension, keeping it positive and divisible by `quantum`.
pub(crate) fn scaled(x: u64, scale: f64, quantum: u64) -> u64 {
    let v = ((x as f64 * scale).round() as u64).max(quantum);
    (v / quantum).max(1) * quantum
}

/// The seven evaluation workloads of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// ResNet-50, batch 64, image 224.
    ResNet50,
    /// BERT-base, batch 32, sequence 512.
    BertBase,
    /// ViT-base, batch 64, image 224, patch 16.
    VitBase,
    /// U-Net, batch 32, image 256.
    UNet,
    /// U-Net++, batch 16, image 256.
    UNetPP,
    /// GPT-Neo-1.3B, batch 32, sequence 512 (bf16).
    GptNeo13B,
    /// BTLM-3B, batch 32, sequence 512 (bf16).
    Btlm3B,
}

impl Workload {
    /// All Table 2 workloads in paper order.
    pub fn all() -> [Workload; 7] {
        [
            Workload::ResNet50,
            Workload::BertBase,
            Workload::VitBase,
            Workload::UNet,
            Workload::UNetPP,
            Workload::GptNeo13B,
            Workload::Btlm3B,
        ]
    }

    /// Resolves a workload name as the CLI and the daemon spell it
    /// (case-insensitive, with the aliases below); `None` for any
    /// other name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name.to_lowercase().as_str() {
            "resnet50" | "resnet" => Some(Workload::ResNet50),
            "bert" => Some(Workload::BertBase),
            "vit" => Some(Workload::VitBase),
            "unet" => Some(Workload::UNet),
            "unetpp" | "unet++" => Some(Workload::UNetPP),
            "gpt-neo" | "gptneo" | "gpt" => Some(Workload::GptNeo13B),
            "btlm" => Some(Workload::Btlm3B),
            _ => None,
        }
    }

    /// Display name with the paper's batch annotation.
    pub fn label(&self) -> &'static str {
        match self {
            Workload::ResNet50 => "ResNet (b64)",
            Workload::BertBase => "BERT (b32)",
            Workload::VitBase => "ViT (b64)",
            Workload::UNet => "UNet (b32)",
            Workload::UNetPP => "UNet++ (b16)",
            Workload::GptNeo13B => "GPT-Neo (b32)",
            Workload::Btlm3B => "BTLM (b32)",
        }
    }

    /// Table 2 "Other Configuration" column.
    pub fn config_note(&self) -> &'static str {
        match self {
            Workload::ResNet50 => "image-size=224",
            Workload::BertBase => "sequence-length=512",
            Workload::VitBase => "image-size=224, patch-size=16",
            Workload::UNet => "image-size=256",
            Workload::UNetPP => "image-size=256",
            Workload::GptNeo13B => "sequence-length=512",
            Workload::Btlm3B => "sequence-length=512",
        }
    }

    /// Batch size from Table 2.
    pub fn batch(&self) -> u64 {
        match self {
            Workload::ResNet50 | Workload::VitBase => 64,
            Workload::BertBase | Workload::UNet | Workload::GptNeo13B | Workload::Btlm3B => 32,
            Workload::UNetPP => 16,
        }
    }

    /// Element type (§7.1: bf16 for the LLMs, tf32 otherwise).
    pub fn dtype(&self) -> DType {
        match self {
            Workload::GptNeo13B | Workload::Btlm3B => DType::BF16,
            _ => DType::TF32,
        }
    }

    /// Builds the training graph at `scale` (1.0 = the paper's config).
    pub fn build(&self, scale: f64) -> TrainingGraph {
        match self {
            Workload::ResNet50 => resnet::resnet50(&resnet::ResNetConfig::paper().scaled(scale)),
            Workload::BertBase => bert::bert(&bert::BertConfig::base().scaled(scale)),
            Workload::VitBase => vit::vit(&vit::VitConfig::base().scaled(scale)),
            Workload::UNet => unet::unet(&unet::UNetConfig::paper().scaled(scale)),
            Workload::UNetPP => unetpp::unetpp(&unetpp::UNetPPConfig::paper().scaled(scale)),
            Workload::GptNeo13B => gpt::gpt(&gpt::GptConfig::gpt_neo_1_3b().scaled(scale)),
            Workload::Btlm3B => gpt::gpt(&gpt::GptConfig::btlm_3b().scaled(scale)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_respects_quantum() {
        assert_eq!(scaled(768, 0.25, 64), 192);
        assert_eq!(scaled(768, 1.0, 64), 768);
        assert_eq!(scaled(10, 0.01, 4), 4);
    }

    #[test]
    fn labels_and_batches() {
        for w in Workload::all() {
            assert!(!w.label().is_empty());
            assert!(w.batch() >= 16);
        }
        assert_eq!(Workload::GptNeo13B.dtype(), DType::BF16);
        assert_eq!(Workload::ResNet50.dtype(), DType::TF32);
    }

    #[test]
    fn names_parse_case_insensitively() {
        assert_eq!(Workload::parse("unet"), Some(Workload::UNet));
        assert_eq!(Workload::parse("UNet++"), Some(Workload::UNetPP));
        assert_eq!(Workload::parse("gpt"), Some(Workload::GptNeo13B));
        assert_eq!(Workload::parse("hal9000"), None);
    }
}
