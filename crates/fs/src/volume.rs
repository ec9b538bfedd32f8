//! The volume: inode table, directories, and path resolution.
//!
//! A [`Volume`] is a complete in-memory filesystem image. Cloning one is
//! O(1); the first structural mutation after a clone copies the (small)
//! inode table, and file *contents* stay chunk-shared via [`FileData`].
//! This is what lets an execution snapshot include "immutable files" at
//! negligible cost.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::data::FileData;
use crate::error::FsError;

/// Index into the volume's inode table.
pub type InodeId = u32;

/// The root directory's inode id.
pub const ROOT_INODE: InodeId = 0;

/// What kind of object an inode is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Regular file.
    File,
    /// Directory.
    Dir,
}

/// Metadata returned by `stat`-like operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metadata {
    /// Inode number.
    pub inode: InodeId,
    /// File or directory.
    pub kind: FileKind,
    /// Length in bytes (0 for directories).
    pub len: u64,
}

#[derive(Clone)]
enum Inode {
    File(FileData),
    Dir(BTreeMap<String, InodeId>),
}

#[derive(Clone, Default)]
struct VolInner {
    table: Vec<Option<Arc<Inode>>>,
    free: Vec<InodeId>,
}

/// A snapshot-friendly in-memory filesystem volume.
#[derive(Clone)]
pub struct Volume {
    inner: Arc<VolInner>,
}

impl Default for Volume {
    fn default() -> Self {
        Self::new()
    }
}

fn validate_name(name: &str) -> Result<(), FsError> {
    if name.is_empty() || name.contains('\0') || name.contains('/') {
        return Err(FsError::Inval);
    }
    Ok(())
}

/// Splits an absolute path into normalised components, applying `.`/`..`.
fn components(path: &str) -> Result<Vec<&str>, FsError> {
    if !path.starts_with('/') || path.contains('\0') {
        return Err(FsError::Inval);
    }
    let mut out: Vec<&str> = Vec::new();
    for part in path.split('/') {
        match part {
            "" | "." => {}
            ".." => {
                out.pop();
            }
            name => out.push(name),
        }
    }
    Ok(out)
}

impl Volume {
    /// Creates an empty volume containing only the root directory.
    pub fn new() -> Self {
        let inner = VolInner {
            table: vec![Some(Arc::new(Inode::Dir(BTreeMap::new())))],
            free: Vec::new(),
        };
        Volume {
            inner: Arc::new(inner),
        }
    }

    /// Makes this volume `other`'s contents, in place; a volume that
    /// already shares them moves no reference count.
    pub fn restore_from(&mut self, other: &Volume) {
        crate::view::repoint(&mut self.inner, &other.inner);
    }

    fn get(&self, id: InodeId) -> Result<&Arc<Inode>, FsError> {
        self.inner
            .table
            .get(id as usize)
            .and_then(Option::as_ref)
            .ok_or(FsError::NoEnt)
    }

    fn inner_mut(&mut self) -> &mut VolInner {
        Arc::make_mut(&mut self.inner)
    }

    fn alloc(&mut self, inode: Inode) -> InodeId {
        let inner = self.inner_mut();
        if let Some(id) = inner.free.pop() {
            inner.table[id as usize] = Some(Arc::new(inode));
            id
        } else {
            inner.table.push(Some(Arc::new(inode)));
            (inner.table.len() - 1) as InodeId
        }
    }

    fn release(&mut self, id: InodeId) {
        let inner = self.inner_mut();
        inner.table[id as usize] = None;
        inner.free.push(id);
    }

    /// Resolves `path` to an inode id.
    pub fn resolve(&self, path: &str) -> Result<InodeId, FsError> {
        let comps = components(path)?;
        let mut cur = ROOT_INODE;
        for name in comps {
            match &**self.get(cur)? {
                Inode::Dir(entries) => {
                    cur = *entries.get(name).ok_or(FsError::NoEnt)?;
                }
                Inode::File(_) => return Err(FsError::NotDir),
            }
        }
        Ok(cur)
    }

    /// Resolves all but the last component; returns `(dir_id, final_name)`.
    fn resolve_parent<'p>(&self, path: &'p str) -> Result<(InodeId, &'p str), FsError> {
        let comps = components(path)?;
        let (last, dirs) = comps.split_last().ok_or(FsError::Inval)?;
        let mut cur = ROOT_INODE;
        for name in dirs {
            match &**self.get(cur)? {
                Inode::Dir(entries) => {
                    cur = *entries.get(*name).ok_or(FsError::NoEnt)?;
                }
                Inode::File(_) => return Err(FsError::NotDir),
            }
        }
        // The parent must itself be a directory.
        match &**self.get(cur)? {
            Inode::Dir(_) => Ok((cur, last)),
            Inode::File(_) => Err(FsError::NotDir),
        }
    }

    /// Returns metadata for `path`.
    pub fn stat(&self, path: &str) -> Result<Metadata, FsError> {
        let id = self.resolve(path)?;
        self.stat_inode(id)
    }

    /// Returns metadata for an inode id.
    pub fn stat_inode(&self, id: InodeId) -> Result<Metadata, FsError> {
        Ok(match &**self.get(id)? {
            Inode::File(data) => Metadata {
                inode: id,
                kind: FileKind::File,
                len: data.len(),
            },
            Inode::Dir(_) => Metadata {
                inode: id,
                kind: FileKind::Dir,
                len: 0,
            },
        })
    }

    /// Creates a regular file, returning its inode.
    ///
    /// With `excl`, an existing file is an error; otherwise an existing
    /// regular file is returned as-is (like `O_CREAT` without `O_EXCL`).
    pub fn create_file(&mut self, path: &str, excl: bool) -> Result<InodeId, FsError> {
        let (dir, name) = self.resolve_parent(path)?;
        validate_name(name)?;
        if let Inode::Dir(entries) = &**self.get(dir)? {
            if let Some(&existing) = entries.get(name) {
                if excl {
                    return Err(FsError::Exists);
                }
                return match &**self.get(existing)? {
                    Inode::File(_) => Ok(existing),
                    Inode::Dir(_) => Err(FsError::IsDir),
                };
            }
        }
        let id = self.alloc(Inode::File(FileData::new()));
        self.dir_insert(dir, name, id)?;
        Ok(id)
    }

    /// Creates a directory.
    pub fn mkdir(&mut self, path: &str) -> Result<InodeId, FsError> {
        let (dir, name) = self.resolve_parent(path)?;
        validate_name(name)?;
        if let Inode::Dir(entries) = &**self.get(dir)? {
            if entries.contains_key(name) {
                return Err(FsError::Exists);
            }
        }
        let id = self.alloc(Inode::Dir(BTreeMap::new()));
        self.dir_insert(dir, name, id)?;
        Ok(id)
    }

    fn dir_insert(&mut self, dir: InodeId, name: &str, id: InodeId) -> Result<(), FsError> {
        let name = name.to_owned();
        let inner = self.inner_mut();
        let slot = inner
            .table
            .get_mut(dir as usize)
            .and_then(Option::as_mut)
            .ok_or(FsError::NoEnt)?;
        match Arc::make_mut(slot) {
            Inode::Dir(entries) => {
                entries.insert(name, id);
                Ok(())
            }
            Inode::File(_) => Err(FsError::NotDir),
        }
    }

    fn dir_remove(&mut self, dir: InodeId, name: &str) -> Result<(), FsError> {
        let inner = self.inner_mut();
        let slot = inner
            .table
            .get_mut(dir as usize)
            .and_then(Option::as_mut)
            .ok_or(FsError::NoEnt)?;
        match Arc::make_mut(slot) {
            Inode::Dir(entries) => {
                entries.remove(name).ok_or(FsError::NoEnt)?;
                Ok(())
            }
            Inode::File(_) => Err(FsError::NotDir),
        }
    }

    /// Removes a regular file.
    pub fn unlink(&mut self, path: &str) -> Result<(), FsError> {
        let (dir, name) = self.resolve_parent(path)?;
        let id = self.resolve(path)?;
        match &**self.get(id)? {
            Inode::File(_) => {}
            Inode::Dir(_) => return Err(FsError::IsDir),
        }
        let name = name.to_owned();
        self.dir_remove(dir, &name)?;
        self.release(id);
        Ok(())
    }

    /// Removes an empty directory.
    pub fn rmdir(&mut self, path: &str) -> Result<(), FsError> {
        let (dir, name) = self.resolve_parent(path)?;
        let id = self.resolve(path)?;
        if id == ROOT_INODE {
            return Err(FsError::Inval);
        }
        match &**self.get(id)? {
            Inode::Dir(entries) if entries.is_empty() => {}
            Inode::Dir(_) => return Err(FsError::NotEmpty),
            Inode::File(_) => return Err(FsError::NotDir),
        }
        let name = name.to_owned();
        self.dir_remove(dir, &name)?;
        self.release(id);
        Ok(())
    }

    /// Lists the entries of a directory in name order.
    pub fn readdir(&self, path: &str) -> Result<Vec<(String, Metadata)>, FsError> {
        let id = self.resolve(path)?;
        match &**self.get(id)? {
            Inode::Dir(entries) => entries
                .iter()
                .map(|(name, &child)| Ok((name.clone(), self.stat_inode(child)?)))
                .collect(),
            Inode::File(_) => Err(FsError::NotDir),
        }
    }

    /// Read access to a file's contents by inode.
    pub fn with_file<R>(&self, id: InodeId, f: impl FnOnce(&FileData) -> R) -> Result<R, FsError> {
        match &**self.get(id)? {
            Inode::File(data) => Ok(f(data)),
            Inode::Dir(_) => Err(FsError::IsDir),
        }
    }

    /// Write access to a file's contents by inode (CoW applies).
    pub fn with_file_mut<R>(
        &mut self,
        id: InodeId,
        f: impl FnOnce(&mut FileData) -> R,
    ) -> Result<R, FsError> {
        let inner = self.inner_mut();
        let slot = inner
            .table
            .get_mut(id as usize)
            .and_then(Option::as_mut)
            .ok_or(FsError::NoEnt)?;
        match Arc::make_mut(slot) {
            Inode::File(data) => Ok(f(data)),
            Inode::Dir(_) => Err(FsError::IsDir),
        }
    }

    /// Convenience: writes a whole file at `path`, creating it if needed.
    pub fn write_file(&mut self, path: &str, bytes: &[u8]) -> Result<(), FsError> {
        let id = self.create_file(path, false)?;
        self.with_file_mut(id, |data| {
            data.truncate(0);
            data.write_at(0, bytes);
        })
    }

    /// Convenience: reads a whole file at `path`.
    pub fn read_file(&self, path: &str) -> Result<Vec<u8>, FsError> {
        let id = self.resolve(path)?;
        self.with_file(id, |data| data.to_vec())
    }

    /// Total number of live inodes (diagnostics).
    pub fn inode_count(&self) -> usize {
        self.inner
            .table
            .iter()
            .filter(|slot| slot.is_some())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_exists() {
        let vol = Volume::new();
        assert_eq!(vol.resolve("/").unwrap(), ROOT_INODE);
        assert_eq!(vol.stat("/").unwrap().kind, FileKind::Dir);
    }

    #[test]
    fn create_and_read_file() {
        let mut vol = Volume::new();
        vol.write_file("/hello.txt", b"hi").unwrap();
        assert_eq!(vol.read_file("/hello.txt").unwrap(), b"hi");
        assert_eq!(vol.stat("/hello.txt").unwrap().len, 2);
        assert_eq!(vol.stat("/hello.txt").unwrap().kind, FileKind::File);
    }

    #[test]
    fn nested_dirs() {
        let mut vol = Volume::new();
        vol.mkdir("/a").unwrap();
        vol.mkdir("/a/b").unwrap();
        vol.write_file("/a/b/f", b"deep").unwrap();
        assert_eq!(vol.read_file("/a/b/f").unwrap(), b"deep");
        // Path normalisation.
        assert_eq!(vol.read_file("//a/./b/../b/f").unwrap(), b"deep");
        // `..` above root stays at root.
        assert_eq!(vol.resolve("/../..").unwrap(), ROOT_INODE);
    }

    #[test]
    fn missing_components_error() {
        let vol = Volume::new();
        assert_eq!(vol.resolve("/nope"), Err(FsError::NoEnt));
        assert_eq!(vol.resolve("relative"), Err(FsError::Inval));
        let mut vol = Volume::new();
        vol.write_file("/f", b"x").unwrap();
        assert_eq!(vol.resolve("/f/child"), Err(FsError::NotDir));
        assert_eq!(vol.mkdir("/f/sub"), Err(FsError::NotDir));
    }

    #[test]
    fn create_excl_semantics() {
        let mut vol = Volume::new();
        let a = vol.create_file("/f", true).unwrap();
        assert_eq!(vol.create_file("/f", true), Err(FsError::Exists));
        let b = vol.create_file("/f", false).unwrap();
        assert_eq!(a, b, "non-excl open of existing file returns it");
        vol.mkdir("/d").unwrap();
        assert_eq!(vol.create_file("/d", false), Err(FsError::IsDir));
    }

    #[test]
    fn unlink_and_rmdir() {
        let mut vol = Volume::new();
        vol.write_file("/f", b"x").unwrap();
        vol.mkdir("/d").unwrap();
        assert_eq!(vol.rmdir("/f"), Err(FsError::NotDir));
        assert_eq!(vol.unlink("/d"), Err(FsError::IsDir));
        vol.write_file("/d/inner", b"y").unwrap();
        assert_eq!(vol.rmdir("/d"), Err(FsError::NotEmpty));
        vol.unlink("/d/inner").unwrap();
        vol.rmdir("/d").unwrap();
        vol.unlink("/f").unwrap();
        assert_eq!(vol.resolve("/f"), Err(FsError::NoEnt));
        assert_eq!(vol.inode_count(), 1, "only root remains");
    }

    #[test]
    fn rmdir_root_rejected() {
        let mut vol = Volume::new();
        assert_eq!(vol.rmdir("/"), Err(FsError::Inval));
    }

    #[test]
    fn inode_reuse_after_unlink() {
        let mut vol = Volume::new();
        vol.write_file("/a", b"1").unwrap();
        let old = vol.resolve("/a").unwrap();
        vol.unlink("/a").unwrap();
        vol.write_file("/b", b"2").unwrap();
        assert_eq!(vol.resolve("/b").unwrap(), old, "freed inode is reused");
    }

    #[test]
    fn readdir_sorted() {
        let mut vol = Volume::new();
        vol.write_file("/b", b"").unwrap();
        vol.write_file("/a", b"").unwrap();
        vol.mkdir("/c").unwrap();
        let names: Vec<String> = vol
            .readdir("/")
            .unwrap()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn snapshot_isolation_files() {
        let mut vol = Volume::new();
        vol.write_file("/f", b"original").unwrap();
        let snap = vol.clone();
        vol.write_file("/f", b"changed!").unwrap();
        vol.write_file("/new", b"n").unwrap();
        vol.unlink("/f").unwrap();
        assert_eq!(snap.read_file("/f").unwrap(), b"original");
        assert_eq!(snap.resolve("/new"), Err(FsError::NoEnt));
    }

    #[test]
    fn snapshot_shares_file_chunks() {
        let mut vol = Volume::new();
        vol.write_file("/big", &vec![9u8; 10 * crate::data::CHUNK_SIZE])
            .unwrap();
        let snap = vol.clone();
        let id = vol.resolve("/big").unwrap();
        vol.with_file_mut(id, |d| d.write_at(0, b"!")).unwrap();
        let shared = vol
            .with_file(id, |d| {
                snap.with_file(id, |s| d.shared_chunks_with(s)).unwrap()
            })
            .unwrap();
        assert_eq!(shared, 9, "only the written chunk diverged");
    }

    #[test]
    fn invalid_names() {
        let mut vol = Volume::new();
        assert_eq!(vol.write_file("/bad\0name", b""), Err(FsError::Inval));
        assert_eq!(
            vol.mkdir("/"),
            Err(FsError::Inval),
            "mkdir of root is invalid"
        );
    }
}
