//! Per-instance variable storage and the kernel-facing task context.
//!
//! On initialization the application handler "allocates the memory
//! required by the emulation workload in the main memory" (paper §II-A):
//! every variable in the JSON gets backing storage — its own `bytes` for
//! scalars, `ptr_alloc_bytes` of heap for pointer variables — initialized
//! from the little-endian `val` list. Tasks of one application instance
//! share this memory; inter-PE communication goes through it, mirroring
//! the shared-memory communication of the emulated SoC.
//!
//! Kernels never see raw pointers: they access variables through a
//! [`TaskCtx`], which provides typed, lock-guarded reads and writes plus
//! (on accelerator PEs) access to the attached device through
//! [`AccelPort`].

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use std::sync::RwLockReadGuard;

use dssoc_dsp::complex::Complex32;
use dssoc_platform::accel::AccelJobReport;

use crate::error::ModelError;
use crate::json::VariableJson;

/// One application's variable declarations, validated once and shared
/// (by `Arc`) by its spec and every instance's [`AppMemory`], which
/// keeps only its own data buffers. Variables are held in name order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VarDecls {
    names: Vec<String>,
    decls: Vec<VariableJson>,
}

impl VarDecls {
    /// Validates `decls` and takes them in name order.
    pub fn new(decls: &BTreeMap<String, VariableJson>) -> Result<Self, ModelError> {
        for (name, decl) in decls {
            decl.validate(name)?;
        }
        Ok(VarDecls {
            names: decls.keys().cloned().collect(),
            decls: decls.values().cloned().collect(),
        })
    }

    /// Number of declared variables.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no variable is declared.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// `(name, declaration)` pairs in name order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&str, &VariableJson)> {
        self.names.iter().map(String::as_str).zip(&self.decls)
    }

    /// The declaration of `name`.
    pub fn get(&self, name: &str) -> Option<&VariableJson> {
        self.index_of(name).map(|i| &self.decls[i])
    }

    fn index_of(&self, name: &str) -> Option<usize> {
        self.names.binary_search_by(|n| n.as_str().cmp(name)).ok()
    }
}

/// The shared variable memory of one application instance: a data
/// buffer per declared variable, in the declarations' order.
pub struct AppMemory {
    decls: Arc<VarDecls>,
    data: Vec<RwLock<Vec<u8>>>,
}

impl AppMemory {
    /// Allocates and initializes storage for every declared variable.
    pub fn from_decls(decls: &BTreeMap<String, VariableJson>) -> Result<Arc<Self>, ModelError> {
        Ok(Self::for_decls(Arc::new(VarDecls::new(decls)?)))
    }

    /// Allocates and initializes storage for every variable of an
    /// already validated declaration table, sharing the table.
    pub fn for_decls(decls: Arc<VarDecls>) -> Arc<Self> {
        let data = decls
            .decls
            .iter()
            .map(|decl| {
                let mut data = vec![0u8; decl.storage_bytes()];
                data[..decl.val.len()].copy_from_slice(&decl.val);
                RwLock::new(data)
            })
            .collect();
        Arc::new(AppMemory { decls, data })
    }

    /// Names of all variables, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.decls.names.iter().map(String::as_str).collect()
    }

    /// The declaration of a variable.
    pub fn decl(&self, name: &str) -> Option<&VariableJson> {
        self.decls.get(name)
    }

    /// Total allocated bytes across all variables.
    pub fn total_bytes(&self) -> usize {
        self.decls.decls.iter().map(VariableJson::storage_bytes).sum()
    }

    fn var(&self, name: &str) -> Result<&RwLock<Vec<u8>>, ModelError> {
        let var = self.decls.index_of(name).map(|i| &self.data[i]);
        var.ok_or_else(|| type_error(name, "variable not declared".into()))
    }

    /// Copies out a variable's bytes.
    pub fn read_bytes(&self, name: &str) -> Result<Vec<u8>, ModelError> {
        Ok(self.var(name)?.read().clone())
    }

    /// Writes `bytes` into the variable starting at offset 0. Fails if the
    /// payload exceeds the allocation.
    pub fn write_bytes(&self, name: &str, bytes: &[u8]) -> Result<(), ModelError> {
        self.write_prefix(name, bytes.len(), |out| out.copy_from_slice(bytes))
    }

    /// Runs `f` with a mutable view of the variable's bytes (for in-place
    /// transforms such as staging to an accelerator).
    pub fn with_bytes_mut<R>(
        &self,
        name: &str,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, ModelError> {
        let var = self.var(name)?;
        let mut guard = var.write();
        Ok(f(&mut guard))
    }

    /// Copies `len` bytes starting at byte `offset` out of a variable.
    pub fn read_bytes_at(
        &self,
        name: &str,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, ModelError> {
        self.read_range(name, offset, len, <[u8]>::to_vec)
    }

    /// Writes `bytes` into a variable starting at byte `offset`.
    pub fn write_bytes_at(
        &self,
        name: &str,
        offset: usize,
        bytes: &[u8],
    ) -> Result<(), ModelError> {
        self.write_range(name, offset, bytes.len(), |out| out.copy_from_slice(bytes))
    }

    /// Reads `n` complex samples starting at complex-element index
    /// `elem` (8 bytes per element, interleaved re/im).
    pub fn read_complex_at(
        &self,
        name: &str,
        elem: usize,
        n: usize,
    ) -> Result<Vec<Complex32>, ModelError> {
        self.read_range(name, elem * 8, n * 8, decode_complex)
    }

    /// Reads `count` complex samples at element indices `start`,
    /// `start + stride`, ... in one lock acquisition (matrix-column
    /// access for the pulse-Doppler realign/Doppler kernels).
    pub fn read_complex_strided(
        &self,
        name: &str,
        start: usize,
        stride: usize,
        count: usize,
    ) -> Result<Vec<Complex32>, ModelError> {
        let var = self.var(name)?;
        let guard = var.read();
        let need = if count == 0 { 0 } else { (start + (count - 1) * stride + 1) * 8 };
        if need > guard.len() {
            let reason = format!("strided read needs {need} bytes, allocation is {}", guard.len());
            return Err(type_error(name, reason));
        }
        let mut out = Vec::with_capacity(count);
        for k in 0..count {
            let off = (start + k * stride) * 8;
            out.push(Complex32::new(
                f32::from_le_bytes(guard[off..off + 4].try_into().unwrap()),
                f32::from_le_bytes(guard[off + 4..off + 8].try_into().unwrap()),
            ));
        }
        Ok(out)
    }

    /// Writes complex samples at element indices `start`, `start +
    /// stride`, ... in one lock acquisition.
    pub fn write_complex_strided(
        &self,
        name: &str,
        start: usize,
        stride: usize,
        values: &[Complex32],
    ) -> Result<(), ModelError> {
        let var = self.var(name)?;
        let mut guard = var.write();
        let need =
            if values.is_empty() { 0 } else { (start + (values.len() - 1) * stride + 1) * 8 };
        if need > guard.len() {
            let reason = format!("strided write needs {need} bytes, allocation is {}", guard.len());
            return Err(type_error(name, reason));
        }
        for (k, v) in values.iter().enumerate() {
            let off = (start + k * stride) * 8;
            guard[off..off + 4].copy_from_slice(&v.re.to_le_bytes());
            guard[off + 4..off + 8].copy_from_slice(&v.im.to_le_bytes());
        }
        Ok(())
    }

    /// Writes complex samples starting at complex-element index `elem`.
    pub fn write_complex_at(
        &self,
        name: &str,
        elem: usize,
        values: &[Complex32],
    ) -> Result<(), ModelError> {
        self.write_range(name, elem * 8, values.len() * 8, |out| encode_complex(out, values))
    }

    /// Reads a little-endian `u32` from the first four bytes.
    pub fn read_u32(&self, name: &str) -> Result<u32, ModelError> {
        let guard = self.var(name)?.read();
        guard
            .get(..4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
            .ok_or_else(|| type_error(name, format!("need 4 bytes for u32, have {}", guard.len())))
    }

    /// Writes a little-endian `u32` into the first four bytes.
    pub fn write_u32(&self, name: &str, value: u32) -> Result<(), ModelError> {
        self.write_bytes(name, &value.to_le_bytes())
    }

    /// Reads a little-endian `f32` from the first four bytes.
    pub fn read_f32(&self, name: &str) -> Result<f32, ModelError> {
        Ok(f32::from_bits(self.read_u32(name)?))
    }

    /// Writes a little-endian `f32` into the first four bytes.
    pub fn write_f32(&self, name: &str, value: f32) -> Result<(), ModelError> {
        self.write_u32(name, value.to_bits())
    }

    /// Interprets the whole allocation as little-endian `f32`s.
    pub fn read_f32_vec(&self, name: &str) -> Result<Vec<f32>, ModelError> {
        let guard = self.whole_f32s(name)?;
        Ok(guard.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect())
    }

    /// Writes a slice of `f32`s starting at offset 0.
    pub fn write_f32_slice(&self, name: &str, values: &[f32]) -> Result<(), ModelError> {
        self.write_prefix(name, values.len() * 4, |out| {
            for (c, v) in out.chunks_exact_mut(4).zip(values) {
                c.copy_from_slice(&v.to_le_bytes());
            }
        })
    }

    /// Interprets the first `n` complex samples (8 bytes each,
    /// interleaved re/im `f32`). `n = usize::MAX` reads the full
    /// allocation.
    pub fn read_complex_vec(&self, name: &str, n: usize) -> Result<Vec<Complex32>, ModelError> {
        let guard = self.whole_f32s(name)?;
        let avail = guard.len() / 8;
        let take = if n == usize::MAX { avail } else { n };
        if take > avail {
            let reason = format!("requested {take} complex samples, allocation holds {avail}");
            return Err(type_error(name, reason));
        }
        Ok(decode_complex(&guard[..take * 8]))
    }

    /// Writes complex samples (interleaved) starting at offset 0.
    pub fn write_complex_slice(&self, name: &str, values: &[Complex32]) -> Result<(), ModelError> {
        self.write_prefix(name, values.len() * 8, |out| encode_complex(out, values))
    }

    /// The read-locked bytes of a variable that holds whole `f32`s.
    fn whole_f32s(&self, name: &str) -> Result<RwLockReadGuard<'_, Vec<u8>>, ModelError> {
        let guard = self.var(name)?.read();
        if guard.len() % 4 != 0 {
            let reason = format!("{} bytes is not a whole number of f32s", guard.len());
            return Err(type_error(name, reason));
        }
        Ok(guard)
    }

    /// `read` over `len` bytes from byte `offset`, under the read lock.
    fn read_range<R>(
        &self,
        name: &str,
        offset: usize,
        len: usize,
        read: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, ModelError> {
        let guard = self.var(name)?.read();
        guard.get(offset..offset + len).map(read).ok_or_else(|| {
            let end = offset + len;
            type_error(name, format!("range {offset}..{end} exceeds allocation of {}", guard.len()))
        })
    }

    /// `fill` over `len` bytes from byte `offset`, under the write lock.
    fn write_range(
        &self,
        name: &str,
        offset: usize,
        len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) -> Result<(), ModelError> {
        let mut guard = self.var(name)?.write();
        let end = offset + len;
        if end > guard.len() {
            let reason =
                format!("write range {offset}..{end} exceeds allocation of {}", guard.len());
            return Err(type_error(name, reason));
        }
        fill(&mut guard[offset..end]);
        Ok(())
    }

    /// `fill` over the first `len` bytes, under the write lock.
    fn write_prefix(
        &self,
        name: &str,
        len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) -> Result<(), ModelError> {
        let mut guard = self.var(name)?.write();
        if len > guard.len() {
            let reason = format!("write of {len} bytes exceeds allocation of {}", guard.len());
            return Err(type_error(name, reason));
        }
        fill(&mut guard[..len]);
        Ok(())
    }
}

fn type_error(variable: &str, reason: String) -> ModelError {
    ModelError::TypeError { variable: variable.to_string(), reason }
}

/// Decodes interleaved little-endian `(re, im)` `f32` pairs.
fn decode_complex(bytes: &[u8]) -> Vec<Complex32> {
    bytes
        .chunks_exact(8)
        .map(|c| {
            Complex32::new(
                f32::from_le_bytes(c[..4].try_into().unwrap()),
                f32::from_le_bytes(c[4..].try_into().unwrap()),
            )
        })
        .collect()
}

/// Encodes `values` as interleaved little-endian `(re, im)` `f32` pairs
/// into `out`, which holds exactly `8 * values.len()` bytes.
fn encode_complex(out: &mut [u8], values: &[Complex32]) {
    for (c, v) in out.chunks_exact_mut(8).zip(values) {
        c[..4].copy_from_slice(&v.re.to_le_bytes());
        c[4..].copy_from_slice(&v.im.to_le_bytes());
    }
}

impl std::fmt::Debug for AppMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppMemory")
            .field("variables", &self.data.len())
            .field("total_bytes", &self.total_bytes())
            .finish()
    }
}

/// Access to the accelerator device attached to the executing PE.
///
/// Implemented in `dssoc-core` by the resource-manager thread that owns
/// the device; the byte-level interface mirrors staging a `udmabuf`
/// window through DMA.
pub trait AccelPort: Send + Sync {
    /// Device kind ("fft").
    fn kind(&self) -> &str;
    /// Stages `buf` (interleaved complex `f32` little-endian) to the
    /// device, runs a forward/inverse FFT, copies the result back, and
    /// returns the modeled timing breakdown.
    fn fft_bytes(&self, buf: &mut [u8], inverse: bool) -> Result<AccelJobReport, String>;
}

/// Everything a kernel can touch while executing one task.
pub struct TaskCtx<'a> {
    memory: &'a AppMemory,
    node: &'a str,
    args: &'a [String],
    accel: Option<&'a dyn AccelPort>,
    reports: Mutex<Vec<AccelJobReport>>,
}

impl<'a> TaskCtx<'a> {
    /// Builds a context for one task execution. `accel` is `Some` only on
    /// accelerator PEs.
    pub fn new(
        memory: &'a AppMemory,
        node: &'a str,
        args: &'a [String],
        accel: Option<&'a dyn AccelPort>,
    ) -> Self {
        TaskCtx { memory, node, args, accel, reports: Mutex::new(Vec::new()) }
    }

    /// The DAG node name this task came from.
    pub fn node(&self) -> &str {
        self.node
    }

    /// The node's declared argument names, in order.
    pub fn args(&self) -> &[String] {
        self.args
    }

    /// The `i`-th argument name; errors with context if out of range.
    pub fn arg(&self, i: usize) -> Result<&str, ModelError> {
        self.args.get(i).map(String::as_str).ok_or_else(|| ModelError::KernelFailed {
            kernel: self.node.to_string(),
            reason: format!("argument index {i} out of range ({} args)", self.args.len()),
        })
    }

    /// The whole instance memory (kernels usually go through the typed
    /// helpers below instead).
    pub fn memory(&self) -> &AppMemory {
        self.memory
    }

    /// Reads a `u32` variable.
    pub fn read_u32(&self, name: &str) -> Result<u32, ModelError> {
        self.memory.read_u32(name)
    }

    /// Writes a `u32` variable.
    pub fn write_u32(&self, name: &str, v: u32) -> Result<(), ModelError> {
        self.memory.write_u32(name, v)
    }

    /// Reads an `f32` variable.
    pub fn read_f32(&self, name: &str) -> Result<f32, ModelError> {
        self.memory.read_f32(name)
    }

    /// Writes an `f32` variable.
    pub fn write_f32(&self, name: &str, v: f32) -> Result<(), ModelError> {
        self.memory.write_f32(name, v)
    }

    /// Copies out a variable's raw bytes.
    pub fn read_bytes(&self, name: &str) -> Result<Vec<u8>, ModelError> {
        self.memory.read_bytes(name)
    }

    /// Writes raw bytes into a variable.
    pub fn write_bytes(&self, name: &str, bytes: &[u8]) -> Result<(), ModelError> {
        self.memory.write_bytes(name, bytes)
    }

    /// Reads the first `n` complex samples of a buffer variable
    /// (`usize::MAX` = whole allocation).
    pub fn read_complex(&self, name: &str, n: usize) -> Result<Vec<Complex32>, ModelError> {
        self.memory.read_complex_vec(name, n)
    }

    /// Writes complex samples into a buffer variable.
    pub fn write_complex(&self, name: &str, values: &[Complex32]) -> Result<(), ModelError> {
        self.memory.write_complex_slice(name, values)
    }

    /// Reads `n` complex samples starting at element index `elem`
    /// (strided access into matrix-shaped variables).
    pub fn read_complex_at(
        &self,
        name: &str,
        elem: usize,
        n: usize,
    ) -> Result<Vec<Complex32>, ModelError> {
        self.memory.read_complex_at(name, elem, n)
    }

    /// Writes complex samples starting at element index `elem`.
    pub fn write_complex_at(
        &self,
        name: &str,
        elem: usize,
        values: &[Complex32],
    ) -> Result<(), ModelError> {
        self.memory.write_complex_at(name, elem, values)
    }

    /// Strided complex read (one lock acquisition).
    pub fn read_complex_strided(
        &self,
        name: &str,
        start: usize,
        stride: usize,
        count: usize,
    ) -> Result<Vec<Complex32>, ModelError> {
        self.memory.read_complex_strided(name, start, stride, count)
    }

    /// Strided complex write (one lock acquisition).
    pub fn write_complex_strided(
        &self,
        name: &str,
        start: usize,
        stride: usize,
        values: &[Complex32],
    ) -> Result<(), ModelError> {
        self.memory.write_complex_strided(name, start, stride, values)
    }

    /// Copies a byte range out of a variable.
    pub fn read_bytes_at(
        &self,
        name: &str,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, ModelError> {
        self.memory.read_bytes_at(name, offset, len)
    }

    /// Writes a byte range into a variable.
    pub fn write_bytes_at(
        &self,
        name: &str,
        offset: usize,
        bytes: &[u8],
    ) -> Result<(), ModelError> {
        self.memory.write_bytes_at(name, offset, bytes)
    }

    /// The attached accelerator, if this task runs on an accelerator PE.
    pub fn accel(&self) -> Option<&dyn AccelPort> {
        self.accel
    }

    /// Runs a forward/inverse FFT of the first `n` samples of variable
    /// `input` on the attached accelerator, writing the result to
    /// variable `output` and recording the device timing. This is the
    /// accelerator-flavored kernel's whole body (DDR→device→DDR), as in
    /// the paper's Fig. 4.
    pub fn accel_fft(
        &self,
        input: &str,
        output: &str,
        n: usize,
        inverse: bool,
    ) -> Result<(), ModelError> {
        let port = self.accel.ok_or_else(|| ModelError::NoAccelerator { wanted: "fft".into() })?;
        if port.kind() != "fft" {
            return Err(ModelError::NoAccelerator { wanted: "fft".into() });
        }
        let samples = self.memory.read_complex_vec(input, n)?;
        let mut buf = vec![0u8; samples.len() * 8];
        encode_complex(&mut buf, &samples);
        let report = port
            .fft_bytes(&mut buf, inverse)
            .map_err(|e| ModelError::KernelFailed { kernel: self.node.to_string(), reason: e })?;
        self.reports.lock().push(report);
        self.memory.write_complex_slice(output, &decode_complex(&buf))
    }

    /// Runs a forward/inverse FFT on the attached accelerator over a raw
    /// staging buffer (interleaved complex `f32`, little-endian) and
    /// records the device timing. Lower-level sibling of
    /// [`Self::accel_fft`] for kernels whose data is not already laid out
    /// as a complex buffer variable (e.g. compiler-generated kernels
    /// marshaling split re/im `f64` arrays).
    pub fn accel_fft_bytes(&self, buf: &mut [u8], inverse: bool) -> Result<(), ModelError> {
        let port = self.accel.ok_or_else(|| ModelError::NoAccelerator { wanted: "fft".into() })?;
        if port.kind() != "fft" {
            return Err(ModelError::NoAccelerator { wanted: "fft".into() });
        }
        let report = port
            .fft_bytes(buf, inverse)
            .map_err(|e| ModelError::KernelFailed { kernel: self.node.to_string(), reason: e })?;
        self.reports.lock().push(report);
        Ok(())
    }

    /// The accelerator invocations this task performed (consumed by the
    /// engine's timing layer).
    pub fn take_accel_reports(&self) -> Vec<AccelJobReport> {
        std::mem::take(&mut self.reports.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::VariableJson;
    use std::time::Duration;

    fn memory() -> Arc<AppMemory> {
        let mut decls = BTreeMap::new();
        decls.insert("n".to_string(), VariableJson::u32_scalar(256));
        decls.insert("buf".to_string(), VariableJson::buffer(64));
        decls.insert("x".to_string(), VariableJson::scalar(4, vec![]));
        AppMemory::from_decls(&decls).unwrap()
    }

    #[test]
    fn initialization_from_val() {
        let m = memory();
        assert_eq!(m.read_u32("n").unwrap(), 256);
        assert_eq!(m.read_bytes("buf").unwrap(), vec![0u8; 64]);
        assert_eq!(m.total_bytes(), 4 + 64 + 4);
        assert_eq!(m.names(), vec!["buf", "n", "x"]);
    }

    #[test]
    fn scalar_round_trips() {
        let m = memory();
        m.write_u32("x", 0xDEAD_BEEF).unwrap();
        assert_eq!(m.read_u32("x").unwrap(), 0xDEAD_BEEF);
        m.write_f32("x", -1.5).unwrap();
        assert_eq!(m.read_f32("x").unwrap(), -1.5);
    }

    #[test]
    fn complex_round_trips() {
        let m = memory();
        let xs = vec![Complex32::new(1.0, -2.0), Complex32::new(0.5, 3.25)];
        m.write_complex_slice("buf", &xs).unwrap();
        assert_eq!(m.read_complex_vec("buf", 2).unwrap(), xs);
        // whole-allocation read sees 8 samples (64 bytes / 8)
        assert_eq!(m.read_complex_vec("buf", usize::MAX).unwrap().len(), 8);
    }

    #[test]
    fn oversized_write_rejected() {
        let m = memory();
        let err = m.write_bytes("x", &[0u8; 8]).unwrap_err();
        assert!(matches!(err, ModelError::TypeError { .. }));
        assert!(m.write_complex_slice("buf", &[Complex32::ZERO; 9]).is_err());
    }

    #[test]
    fn unknown_variable_rejected() {
        let m = memory();
        assert!(m.read_u32("ghost").is_err());
        assert!(m.write_u32("ghost", 1).is_err());
    }

    #[test]
    fn oversized_complex_read_rejected() {
        let m = memory();
        assert!(m.read_complex_vec("buf", 9).is_err());
    }

    #[test]
    fn range_access_round_trips() {
        let m = memory();
        m.write_bytes_at("buf", 10, &[1, 2, 3]).unwrap();
        assert_eq!(m.read_bytes_at("buf", 10, 3).unwrap(), vec![1, 2, 3]);
        assert_eq!(m.read_bytes_at("buf", 9, 1).unwrap(), vec![0]);
        // out-of-range rejected
        assert!(m.write_bytes_at("buf", 62, &[0; 3]).is_err());
        assert!(m.read_bytes_at("buf", 60, 8).is_err());
        assert!(m.read_bytes_at("ghost", 0, 1).is_err());
    }

    #[test]
    fn strided_bulk_access_round_trips() {
        let m = memory(); // 8 complex elements
        let xs = [Complex32::new(1.0, 2.0), Complex32::new(3.0, 4.0), Complex32::new(5.0, 6.0)];
        m.write_complex_strided("buf", 1, 3, &xs).unwrap(); // elements 1, 4, 7
        assert_eq!(m.read_complex_strided("buf", 1, 3, 3).unwrap(), xs.to_vec());
        assert_eq!(m.read_complex_at("buf", 4, 1).unwrap()[0], xs[1]);
        assert_eq!(m.read_complex_at("buf", 2, 1).unwrap()[0], Complex32::ZERO);
        // Out of range rejected: element 1 + 3*3 = 10 > 7.
        assert!(m.read_complex_strided("buf", 1, 3, 4).is_err());
        assert!(m.write_complex_strided("buf", 6, 2, &xs[..2]).is_err());
        // Empty is fine.
        assert!(m.read_complex_strided("buf", 0, 1, 0).unwrap().is_empty());
    }

    #[test]
    fn strided_complex_access() {
        let m = memory(); // buf holds 8 complex elements
        let xs = [Complex32::new(1.0, -1.0), Complex32::new(2.0, -2.0)];
        m.write_complex_at("buf", 3, &xs).unwrap();
        assert_eq!(m.read_complex_at("buf", 3, 2).unwrap(), xs.to_vec());
        assert_eq!(m.read_complex_at("buf", 2, 1).unwrap(), vec![Complex32::ZERO]);
        assert!(m.write_complex_at("buf", 7, &xs).is_err(), "element 8 is out of range");
    }

    /// The copy-through-buffers forms of the decoding accessors, kept
    /// as oracles: the in-place accessors must return the same values
    /// and errors and leave the same bytes.
    mod copied {
        use super::*;

        fn bytes_of(values: &[Complex32]) -> Vec<u8> {
            values.iter().flat_map(|v| [v.re.to_le_bytes(), v.im.to_le_bytes()]).flatten().collect()
        }

        pub fn read_u32(m: &AppMemory, name: &str) -> Result<u32, ModelError> {
            let bytes = m.read_bytes(name)?;
            bytes.get(..4).map(|b| u32::from_le_bytes(b.try_into().unwrap())).ok_or_else(|| {
                ModelError::TypeError {
                    variable: name.to_string(),
                    reason: format!("need 4 bytes for u32, have {}", bytes.len()),
                }
            })
        }

        pub fn read_complex_vec(
            m: &AppMemory,
            name: &str,
            n: usize,
        ) -> Result<Vec<Complex32>, ModelError> {
            let floats = m.read_f32_vec(name)?;
            let avail = floats.len() / 2;
            let take = if n == usize::MAX { avail } else { n };
            if take > avail {
                return Err(ModelError::TypeError {
                    variable: name.to_string(),
                    reason: format!("requested {take} complex samples, allocation holds {avail}"),
                });
            }
            Ok(floats[..take * 2].chunks_exact(2).map(|p| Complex32::new(p[0], p[1])).collect())
        }

        pub fn read_complex_at(
            m: &AppMemory,
            name: &str,
            elem: usize,
            n: usize,
        ) -> Result<Vec<Complex32>, ModelError> {
            let bytes = m.read_bytes_at(name, elem * 8, n * 8)?;
            Ok(decode_complex(&bytes))
        }

        pub fn read_f32_vec(m: &AppMemory, name: &str) -> Result<Vec<f32>, ModelError> {
            let bytes = m.read_bytes(name)?;
            if bytes.len() % 4 != 0 {
                return Err(ModelError::TypeError {
                    variable: name.to_string(),
                    reason: format!("{} bytes is not a whole number of f32s", bytes.len()),
                });
            }
            Ok(bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect())
        }

        pub fn write_f32_slice(
            m: &AppMemory,
            name: &str,
            values: &[f32],
        ) -> Result<(), ModelError> {
            m.write_bytes(name, &values.iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<u8>>())
        }

        pub fn write_complex_slice(
            m: &AppMemory,
            name: &str,
            values: &[Complex32],
        ) -> Result<(), ModelError> {
            m.write_bytes(name, &bytes_of(values))
        }

        pub fn write_complex_at(
            m: &AppMemory,
            name: &str,
            elem: usize,
            values: &[Complex32],
        ) -> Result<(), ModelError> {
            m.write_bytes_at(name, elem * 8, &bytes_of(values))
        }
    }

    /// Compares decoded samples by bit pattern (the bytes may hold NaNs).
    fn bits(r: Result<Vec<Complex32>, ModelError>) -> Result<Vec<(u32, u32)>, ModelError> {
        r.map(|v| v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect())
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn in_place_accessors_match_the_copying_forms(
            len in 1u32..41,
            fill in proptest::prelude::any::<u64>(),
            n in 0usize..7,
            whole in proptest::prelude::any::<bool>(),
            elem in 0usize..6,
            raw in proptest::collection::vec((-4i32..5, -4i32..5), 0..6),
        ) {
            let init: Vec<u8> = (0..len as u64).map(|i| (fill >> (i % 57)) as u8).collect();
            let decls = BTreeMap::from([("v".to_string(), VariableJson::scalar(len, init))]);
            let (a, b) = (AppMemory::from_decls(&decls).unwrap(), AppMemory::from_decls(&decls).unwrap());
            let values: Vec<Complex32> =
                raw.iter().map(|&(re, im)| Complex32::new(re as f32 * 0.5, im as f32)).collect();
            let n = if whole { usize::MAX } else { n };
            for name in ["v", "ghost"] {
                proptest::prop_assert_eq!(a.read_u32(name), copied::read_u32(&b, name));
                proptest::prop_assert_eq!(a.read_f32(name).map(f32::to_bits), copied::read_u32(&b, name));
                proptest::prop_assert_eq!(
                    bits(a.read_complex_vec(name, n)),
                    bits(copied::read_complex_vec(&b, name, n))
                );
                let at = n.min(8);
                proptest::prop_assert_eq!(
                    bits(a.read_complex_at(name, elem, at)),
                    bits(copied::read_complex_at(&b, name, elem, at))
                );
                proptest::prop_assert_eq!(
                    a.write_complex_slice(name, &values),
                    copied::write_complex_slice(&b, name, &values)
                );
                proptest::prop_assert_eq!(a.read_bytes("v"), b.read_bytes("v"));
                let floats: Vec<f32> = values.iter().map(|c| c.re).collect();
                proptest::prop_assert_eq!(
                    a.write_f32_slice(name, &floats),
                    copied::write_f32_slice(&b, name, &floats)
                );
                proptest::prop_assert_eq!(
                    a.read_f32_vec(name).map(|v| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>()),
                    copied::read_f32_vec(&b, name).map(|v| v.iter().map(|f| f.to_bits()).collect())
                );
                proptest::prop_assert_eq!(
                    a.write_complex_at(name, elem, &values),
                    copied::write_complex_at(&b, name, elem, &values)
                );
                proptest::prop_assert_eq!(a.read_bytes("v"), b.read_bytes("v"));
            }
        }
    }

    #[test]
    fn bad_decl_rejected_at_allocation() {
        let mut decls = BTreeMap::new();
        decls.insert(
            "bad".to_string(),
            VariableJson { bytes: 0, is_ptr: false, ptr_alloc_bytes: 0, val: vec![] },
        );
        assert!(AppMemory::from_decls(&decls).is_err());
    }

    #[test]
    fn ctx_accessors() {
        let m = memory();
        let args = vec!["n".to_string(), "buf".to_string()];
        let ctx = TaskCtx::new(&m, "NODE", &args, None);
        assert_eq!(ctx.node(), "NODE");
        assert_eq!(ctx.arg(0).unwrap(), "n");
        assert_eq!(ctx.arg(1).unwrap(), "buf");
        assert!(ctx.arg(2).is_err());
        assert_eq!(ctx.read_u32("n").unwrap(), 256);
        ctx.write_u32("n", 128).unwrap();
        assert_eq!(ctx.read_u32("n").unwrap(), 128);
        assert!(ctx.accel().is_none());
        assert!(ctx.take_accel_reports().is_empty());
    }

    #[test]
    fn accel_fft_without_device_fails() {
        let m = memory();
        let args: Vec<String> = vec![];
        let ctx = TaskCtx::new(&m, "FFT_0", &args, None);
        assert!(matches!(
            ctx.accel_fft("buf", "buf", 4, false),
            Err(ModelError::NoAccelerator { .. })
        ));
    }

    struct FakePort;
    impl AccelPort for FakePort {
        fn kind(&self) -> &str {
            "fft"
        }
        fn fft_bytes(&self, buf: &mut [u8], _inverse: bool) -> Result<AccelJobReport, String> {
            // "Device" that negates every float, so effects are observable.
            for chunk in buf.chunks_exact_mut(4) {
                let v = -f32::from_le_bytes(chunk.try_into().unwrap());
                chunk.copy_from_slice(&v.to_le_bytes());
            }
            Ok(AccelJobReport {
                dma_in: Duration::from_micros(1),
                compute: Duration::from_micros(2),
                dma_out: Duration::from_micros(3),
            })
        }
    }

    #[test]
    fn accel_fft_stages_and_records() {
        let m = memory();
        m.write_complex_slice("buf", &[Complex32::new(1.0, 2.0)]).unwrap();
        let args: Vec<String> = vec![];
        let ctx = TaskCtx::new(&m, "FFT_0", &args, Some(&FakePort));
        ctx.accel_fft("buf", "buf", 1, false).unwrap();
        assert_eq!(m.read_complex_vec("buf", 1).unwrap()[0], Complex32::new(-1.0, -2.0));
        let reports = ctx.take_accel_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].total(), Duration::from_micros(6));
        assert!(ctx.take_accel_reports().is_empty(), "reports are consumed");
    }

    struct WrongKind;
    impl AccelPort for WrongKind {
        fn kind(&self) -> &str {
            "gemm"
        }
        fn fft_bytes(&self, _: &mut [u8], _: bool) -> Result<AccelJobReport, String> {
            unreachable!()
        }
    }

    #[test]
    fn accel_kind_mismatch_rejected() {
        let m = memory();
        let args: Vec<String> = vec![];
        let ctx = TaskCtx::new(&m, "FFT_0", &args, Some(&WrongKind));
        assert!(matches!(
            ctx.accel_fft("buf", "buf", 1, false),
            Err(ModelError::NoAccelerator { .. })
        ));
    }
}
